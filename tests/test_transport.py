import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qpcsim import simulate, transport
from qpcsim.simulate import simulate_gate_sweep
from qpcsim.transport import (
    GATE_AXIS,
    KB_MEV_PER_K,
    MAX_MODES,
    MAX_SAMPLES,
    PINCH_MARGIN_MEV,
    ConductanceCurve,
    DeviceParams,
    _logistic_transmission,
    conductance,
    differential_conductance,
    transconductance,
)


def zero_temperature_conductance(v, params):
    """Independent oracle: Landauer sum of transmissions at E_F, no broadening."""
    total = 0.0
    for n in range(params.num_modes):
        eps = params.subband_bottom(n, v)
        t = 1.0 / (1.0 + math.exp(
            max(min(-2.0 * math.pi * (params.fermi_energy - eps)
                    / params.tunnel_width, 700.0), -700.0)))
        if n == 0 and params.anomaly_enabled:
            t2 = 1.0 / (1.0 + math.exp(
                max(min(-2.0 * math.pi * (params.fermi_energy - eps
                                          - params.anomaly_split)
                        / params.tunnel_width, 700.0), -700.0)))
            t = params.anomaly_weight * t + (1.0 - params.anomaly_weight) * t2
        total += t
    return total


# ---------------------------------------------------------------------------
# transmission of one mode
# ---------------------------------------------------------------------------

def mode_transmission(energy, mode_index, params, gate_voltage):
    """Logistic transmission of one mode at `energy` (meV) and a gate voltage."""
    return _logistic_transmission(energy, params.subband_bottom(mode_index, gate_voltage),
                                  params.tunnel_width)


def test_transmission_half_at_subband_bottom(device):
    for n in range(device.num_modes):
        eps = device.subband_bottom(n, -1.45)
        assert mode_transmission(eps, n, device, -1.45) == pytest.approx(0.5, abs=1e-12)


def test_transmission_saturates(device):
    eps = device.subband_bottom(0, -1.45)
    assert mode_transmission(eps + 50.0, 0, device, -1.45) == pytest.approx(1.0, abs=1e-12)
    assert mode_transmission(eps - 50.0, 0, device, -1.45) == pytest.approx(0.0, abs=1e-12)


def test_transmission_three_quarters_point(device):
    # invert the logistic: T = 0.75 at eps + width*ln(3)/(2*pi)
    eps = device.subband_bottom(1, -1.4)
    e = eps + device.tunnel_width * math.log(3.0) / (2.0 * math.pi)
    assert mode_transmission(e, 1, device, -1.4) == pytest.approx(0.75, abs=1e-12)


def test_transmission_monotone_in_energy(device):
    energies = np.linspace(-5.0, 15.0, 400)
    t = mode_transmission(energies, 0, device, -1.45)
    assert np.all(np.diff(t) >= 0)  # flat only where the float range saturates
    eps = device.subband_bottom(0, -1.45)
    near = np.linspace(eps - 1.0, eps + 1.0, 100)
    assert np.all(np.diff(mode_transmission(near, 0, device, -1.45)) > 0)


# ---------------------------------------------------------------------------
# conductance
# ---------------------------------------------------------------------------

def test_all_modes_open_gives_mode_count():
    params = DeviceParams(num_modes=2, anomaly_enabled=False)
    v_open = params.threshold_voltage + 3.0 * params.mode_spacing / params.lever_arm
    assert conductance(v_open, params) == pytest.approx(2.0, abs=1e-6)


def test_pinched_off_at_threshold(device):
    # calibration constraint: the channel is closed at the threshold voltage
    assert conductance(device.threshold_voltage, device) <= 0.02


def test_cold_limit_matches_zero_temperature_sum():
    params = DeviceParams(temperature=0.001)
    rng = np.random.default_rng(42)
    for v in rng.uniform(-1.55, -1.15, 100):
        assert conductance(float(v), params) == pytest.approx(
            zero_temperature_conductance(float(v), params), abs=1e-6)


def test_thermal_energy_at_measurement_temperature(device):
    assert KB_MEV_PER_K * 4.2 == pytest.approx(0.362, abs=5e-4)
    assert device.thermal_energy == pytest.approx(0.362, abs=5e-4)


def test_calibration_places_first_subband_above_fermi(device):
    eps0 = device.subband_bottom(0, device.threshold_voltage)
    assert eps0 == pytest.approx(device.fermi_energy + PINCH_MARGIN_MEV, abs=1e-12)


def test_invalid_device_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(temperature=0.0)
    with pytest.raises(ValueError):
        DeviceParams(mode_spacing=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(num_modes=0)
    with pytest.raises(ValueError):
        DeviceParams(anomaly_weight=1.5)


@pytest.mark.parametrize("lever_arm", [0.0, -64.0, math.nan])
def test_nonpositive_lever_arm_rejected(lever_arm):
    # G must rise with V, or analyze cannot invert it
    with pytest.raises(ValueError, match="lever_arm"):
        DeviceParams(lever_arm=lever_arm)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_spans_two_plateaus_in_200mV(device):
    curve = simulate_gate_sweep(device, -1.5, -1.3, 801)
    assert curve.conductance.max() >= 1.95
    on_first_plateau = np.abs(curve.conductance - 1.0) <= 0.02
    assert on_first_plateau.sum() >= 20  # a genuine flat region, not one point


def test_sweep_two_points(device):
    curve = simulate_gate_sweep(device, -1.5, -1.3, 2)
    assert len(curve) == 2
    assert np.all((curve.conductance >= 0) & (curve.conductance <= device.num_modes))


def test_sweep_rejects_bad_range(device):
    with pytest.raises(ValueError):
        simulate_gate_sweep(device, -1.3, -1.5, 100)
    with pytest.raises(ValueError):
        simulate_gate_sweep(device, -1.5, -1.5, 100)
    with pytest.raises(ValueError):
        simulate_gate_sweep(device, -1.5, -1.3, 1)


@pytest.mark.parametrize("v_start,v_end,name", [
    (-1.5, math.inf, "v_end"), (-math.inf, -1.3, "v_start"), (math.nan, -1.3, "v_start"),
])
def test_sweep_rejects_non_finite_ends_by_name(device, v_start, v_end, name):
    # checked before the grid is built, which would warn on an infinite step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            simulate_gate_sweep(device, v_start, v_end, 11)


def test_sweep_length_is_capped_before_allocating(device):
    # 10^11 points would be 745 GiB of gate voltages
    with pytest.raises(ValueError, match=rf"n_points must be in \[2, {MAX_SAMPLES}\]"):
        simulate_gate_sweep(device, -1.5, -1.3, 10**11)


@settings(max_examples=400, deadline=None, derandomize=True)
@example(start=0.0, stop=1e-322, n=100)         # the step underflows to 0
@example(start=-1e-320, stop=1e-320, n=10**4)   # and again, from subnormal ends
@example(start=-1e-310, stop=3e-310, n=10**4)   # a subnormal step
@example(start=-1e308, stop=1e308, n=3)         # the span overflows to inf
@example(start=-1.5, stop=-1.2, n=601)          # the CLI's default sweep
@given(start=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-306, 1e-306),
       stop=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-306, 1e-306),
       n=st.integers(2, 2000))
def test_sweep_grid_is_linspace_bit_for_bit(start, stop, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, n)
        grid = simulate._linspace(start, stop, n)
    assert grid.tobytes() == expected.tobytes()
    assert grid.flags.owndata


def test_sweep_holds_its_grid_once(device, peak_bytes, monkeypatch):
    # A stand-in evaluator, so the peak is the sweep's own arrays: the grid and
    # G, 8 B a point each, and a byte a point for `Trace`'s order check.  A grid
    # that `Trace` had to copy would be a third array.
    monkeypatch.setattr(simulate, "conductance", lambda v, params: np.ones_like(v))
    n = 200_000
    assert peak_bytes(simulate_gate_sweep, device, -1.5, -1.2, n) < 2.5 * 8 * n
    grid = simulate_gate_sweep(device, -1.5, -1.2, n).times
    assert grid.tobytes() == np.linspace(-1.5, -1.2, n).tobytes()


def test_num_modes_is_capped_by_the_device():
    with pytest.raises(ValueError, match=rf"^num_modes must be in \[1, {MAX_MODES}\], "
                                         rf"got {MAX_MODES + 1}$"):
        DeviceParams(num_modes=MAX_MODES + 1)
    device = DeviceParams(num_modes=MAX_MODES)
    # the last subband opens ~8 V above threshold at the default spacing and lever arm
    g = simulate_gate_sweep(device, -1.6, 7.5, 20001).conductance
    assert np.all(np.diff(g) >= 0.0)
    assert g[0] >= 0.0 and g[-1] <= MAX_MODES and g[-1] > MAX_MODES - 0.5


def _evaluation_peak(peak_bytes, evaluate, v, params):
    evaluate(v[:1], params)  # the table is cached per device: build it untraced
    return peak_bytes(evaluate, v, params)


@pytest.mark.parametrize("evaluate", [conductance, transconductance])
def test_evaluation_memory_does_not_grow_with_num_modes(evaluate, peak_bytes):
    v = np.linspace(-1.6, 7.5, 10**5)
    one = _evaluation_peak(peak_bytes, evaluate, v, DeviceParams(num_modes=1))
    assert _evaluation_peak(peak_bytes, evaluate, v, DeviceParams(num_modes=MAX_MODES)) \
        <= 1.5 * one


def test_hot_device_memory_does_not_grow_with_points(peak_bytes):
    hot = DeviceParams(temperature=2000.0, tunnel_width=0.1)  # kT ~ 1700 w
    table = transport._transmission_table(hot.thermal_energy, hot.tunnel_width)
    assert table[0].cells <= 5120  # nodes, less one
    v = np.linspace(-5.0, 5.0, 20_000)
    assert _evaluation_peak(peak_bytes, conductance, v, hot) < 16 * 2**20


def test_table_build_memory_stays_small(peak_bytes, device):
    # the uncached build: 3,124 nodes on the default device, a block of points at a time
    build = transport._transmission_table.__wrapped__
    assert peak_bytes(build, device.thermal_energy, device.tunnel_width) < 1.5 * 2**20


# ---------------------------------------------------------------------------
# table lookups per call
# ---------------------------------------------------------------------------

def mode_at_a_time(v, params, phi):
    """The mode sum with one table lookup per mode and one for the shoulder."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = params.fermi_energy - params.subband_bottom(0, v)
    total = phi(x)
    if params.anomaly_enabled:
        total = (params.anomaly_weight * total
                 + (1.0 - params.anomaly_weight) * phi(x - params.anomaly_split))
    for n in range(1, params.num_modes):
        total = total + phi(params.fermi_energy - params.subband_bottom(n, v))
    return total


@pytest.mark.parametrize("points,lookups", [(1, 1), (601, 1), (20_001, None)])
def test_a_small_call_makes_one_table_lookup(device, monkeypatch, points, lookups):
    v = np.linspace(-1.5, -1.2, points)
    conductance(v, device)  # the table is cached per device: build it uncounted
    sizes, lookup = [], transport._Hermite.__call__
    monkeypatch.setattr(transport._Hermite, "__call__",
                        lambda self, x: sizes.append(x.size) or lookup(self, x))
    conductance(v, device)
    transconductance(v, device)
    lookups = lookups or device.num_modes + 1  # past the pair budget, one per row
    assert len(sizes) == 2 * lookups
    assert sum(sizes) == 2 * (device.num_modes + 1) * points


@pytest.mark.parametrize("params", [DeviceParams(), DeviceParams(anomaly_enabled=False),
                                    DeviceParams(num_modes=1),
                                    DeviceParams(num_modes=1, anomaly_enabled=False),
                                    DeviceParams(num_modes=MAX_MODES),
                                    DeviceParams(temperature=20.0, tunnel_width=0.1)],
                         ids=["default", "no-shoulder", "one-mode", "one-plain-mode",
                              "most-modes", "hot"])
def test_blocks_of_modes_match_the_mode_at_a_time_sum_bit_for_bit(params):
    table = transport._transmission_table(params.thermal_energy, params.tunnel_width)
    rng = np.random.default_rng(params.num_modes)
    for n in (1, 2, 5, 40, 601, 1365, 1366, 4096, 4097, 20_001):
        v = np.sort(rng.uniform(-1.7, 0.5, n))
        v[:5] = [np.nan, 0.0, -0.0, np.inf, -np.inf][:n]
        g, dg = conductance(v, params), transconductance(v, params)
        assert g.tobytes() == mode_at_a_time(v, params, table[0]).tobytes(), n
        assert g.flags.owndata, n  # Trace copies an array that does not own its data
        assert dg.tobytes() == (params.lever_arm * mode_at_a_time(v, params, table[1])).tobytes(), n


def test_shoulder_is_dgdv_minimum_in_conductance_window(device):
    curve = simulate_gate_sweep(device, -1.5, -1.2, 3001)
    dgdv = differential_conductance(curve)
    g, d = curve.conductance, dgdv.conductance
    dips = [i for i in range(1, len(d) - 1)
            if d[i] < d[i - 1] and d[i] <= d[i + 1] and 0.3 < g[i] < 0.95]
    assert dips, "no shoulder dip found below the first plateau"
    assert any(0.6 <= g[i] <= 0.8 for i in dips)


def test_no_shoulder_without_anomaly():
    params = DeviceParams(anomaly_enabled=False)
    curve = simulate_gate_sweep(params, -1.5, -1.2, 3001)
    dgdv = differential_conductance(curve)
    g, d = curve.conductance, dgdv.conductance
    dips = [i for i in range(1, len(d) - 1)
            if d[i] < d[i - 1] and d[i] <= d[i + 1] and 0.2 < g[i] < 0.95]
    assert not dips


# ---------------------------------------------------------------------------
# differential_conductance
# ---------------------------------------------------------------------------

def test_differential_of_constant_is_zero():
    v = np.linspace(0.0, 1.0, 50)
    curve = ConductanceCurve(GATE_AXIS, v, np.full(50, 1.3))
    assert np.all(differential_conductance(curve).conductance == 0.0)


def test_differential_of_linear_is_slope():
    v = np.linspace(-2.0, 3.0, 77)
    curve = ConductanceCurve(GATE_AXIS, v, 0.7 * v + 0.1)
    d = differential_conductance(curve).conductance
    assert np.abs(d - 0.7).max() < 1e-9


def test_differential_needs_three_points(device):
    curve = simulate_gate_sweep(device, -1.5, -1.4, 2)
    with pytest.raises(ValueError):
        differential_conductance(curve)


def test_differential_extrema_sit_between_and_on_plateaus(device):
    curve = simulate_gate_sweep(device, -1.48, -1.25, 2301)
    dgdv = differential_conductance(curve)
    g, d = curve.conductance, dgdv.conductance
    # largest slope happens mid-riser, far from integer conductance
    imax = int(np.argmax(d))
    assert min(abs(g[imax] - 1.0), abs(g[imax] - 2.0)) > 0.2
    # the smallest slope happens on a quantized plateau, and it is tiny
    imin = int(np.argmin(d))
    assert min(abs(g[imin] - 1.0), abs(g[imin] - 2.0)) < 0.02
    assert d[imin] < 1e-3 * d[imax]


def test_differential_matches_central_difference_formula(device):
    curve = simulate_gate_sweep(device, -1.49, -1.3, 501)
    d = differential_conductance(curve).conductance
    v, g = curve.times, curve.conductance
    expected = (g[2:] - g[:-2]) / (v[2:] - v[:-2])
    assert np.abs(d[1:-1] - expected).max() < 1e-6


def test_analytic_transconductance_matches_finite_difference(device):
    v = np.linspace(-1.49, -1.28, 40)
    h = 2e-6
    fd = (np.asarray(conductance(v + h, device))
          - np.asarray(conductance(v - h, device))) / (2.0 * h)
    assert np.abs(fd - np.asarray(transconductance(v, device))).max() < 1e-6


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

# Gate voltages from below threshold to past the 0.3 V default sweep span:
# pinch-off, shoulder, both plateaus and the risers between them.
OPERATING_GATE_VOLTAGE = st.floats(-1.55, -1.1)

gate_batches = (st.sampled_from([1, 3, 100]) | st.integers(1, 128)).flatmap(
    lambda n: arrays(np.float64, n, elements=OPERATING_GATE_VOLTAGE))

# The saturated level of the default exposure; alone and in a batch it used to
# round to three different values.
SATURATED_LEVEL = -1.3129416103866323


@settings(max_examples=30, deadline=None, derandomize=True)
@example(v=np.full(3, SATURATED_LEVEL))
@example(v=np.linspace(SATURATED_LEVEL - 0.2, SATURATED_LEVEL, 100))
@given(v=gate_batches)
def test_batch_invariant_bit_exact(device, v):
    # a value must not depend on how many others are evaluated with it
    g = conductance(v, device)
    dg = transconductance(v, device)
    for i in range(v.size):
        assert g[i] == conductance(float(v[i]), device)
        assert dg[i] == transconductance(float(v[i]), device)


def test_monotone_and_bounded_over_random_devices():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = DeviceParams(
            fermi_energy=float(rng.uniform(0.5, 4.0)),
            temperature=float(rng.uniform(0.05, 20.0)),
            mode_spacing=float(rng.uniform(1.0, 12.0)),
            tunnel_width=float(rng.uniform(0.1, 2.0)),
            lever_arm=float(rng.uniform(10.0, 120.0)),
            threshold_voltage=float(rng.uniform(-2.5, -0.5)),
            num_modes=int(rng.integers(1, 6)),
            anomaly_enabled=bool(rng.integers(0, 2)),
            anomaly_weight=float(rng.uniform(0.3, 0.9)),
            anomaly_split=float(rng.uniform(0.2, 3.0)),
        )
        v = np.linspace(params.threshold_voltage - 0.1,
                        params.threshold_voltage + 0.6, 400)
        g = np.asarray(conductance(v, params))
        assert np.all(np.diff(g) >= -1e-12)
        assert g.min() >= 0.0 and g.max() <= params.num_modes + 1e-12


def test_quadrature_doubling_converged(device, by_quadrature):
    v = np.linspace(-1.52, -1.18, 120)
    g1 = np.asarray(conductance(v, device))
    g2 = np.asarray(by_quadrature(v, device, 320))
    assert np.abs(g1 - g2).max() < 1e-8


@pytest.mark.parametrize("temperature,tunnel_width", [(4.2, 0.5), (4.2, 0.1), (20.0, 0.1)])
def test_thermal_average_matches_adaptive_quadrature(temperature, tunnel_width):
    # independent route to the same integrals: scipy adaptive quadrature of
    # transmission x (-df/dE) over the whole line, with no window cut-off;
    # the two sharp devices have kT well above w/2pi
    from scipy.integrate import quad

    device = DeviceParams(temperature=temperature, tunnel_width=tunnel_width)
    kt, s = device.thermal_energy, 2 * np.pi / device.tunnel_width
    half = 40 * (kt + 1 / s)
    lo, hi = device.fermi_energy - half, device.fermi_energy + half

    def components(v):
        # (weight, subband bottom) of every logistic step in the mode sum
        for n in range(device.num_modes):
            eps = device.subband_bottom(n, v)
            if n == 0 and device.anomaly_enabled:
                yield device.anomaly_weight, eps
                yield 1 - device.anomaly_weight, eps + device.anomaly_split
            else:
                yield 1.0, eps

    def transmission(energy, v, slope):
        total = 0.0
        for weight, eps in components(v):
            t = 1.0 / (1.0 + np.exp(np.clip(-s * (energy - eps), -700, 700)))
            total += weight * (s * t * (1 - t) if slope else t)
        return total

    def kernel(energy):
        return 1.0 / (4 * kt * np.cosh((energy - device.fermi_energy)
                                       / (2 * kt)) ** 2)

    for v in (-1.49, -1.46, -1.43, -1.35, -1.26):
        points = [device.fermi_energy] + [float(device.subband_bottom(n, v))
                                          for n in range(device.num_modes)]
        g, dg = (quad(lambda e: transmission(e, v, slope) * kernel(e), lo, hi,
                      points=[p for p in points if lo < p < hi],
                      limit=500, epsabs=1e-13, epsrel=1e-12)[0]
                 for slope in (False, True))
        assert conductance(v, device) == pytest.approx(g, abs=1e-9)
        assert transconductance(v, device) == pytest.approx(device.lever_arm * dg, abs=1e-8)


def test_curve_rejects_non_increasing_axis():
    with pytest.raises(ValueError):
        ConductanceCurve(GATE_AXIS, np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_conductance_curve_is_the_trace_type(device):
    import qpcsim
    assert qpcsim.ConductanceCurve is qpcsim.Trace is ConductanceCurve
    curve = simulate_gate_sweep(device, -1.5, -1.4, 11)
    assert type(curve) is ConductanceCurve and len(curve) == 11
    assert curve.truth_events is None and curve.photons_captured == 0
    assert len(differential_conductance(curve)) == 11
