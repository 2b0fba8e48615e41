import gc
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpcsim.analyze import AnalysisConfig
from qpcsim.charge import PhotonSource, TrapConfig, build_ensemble, cumulative_gate_shift
from qpcsim import simulate, transport
from qpcsim.simulate import (
    ExposureConfig,
    Trace,
    device_from_config,
    exposure_to_gate_equivalence,
    poisson_event_times,
    read_trace,
    simulate_exposure,
    simulate_gate_sweep,
    trace_from_text,
    trace_to_text,
)
from qpcsim.transport import (
    GATE_AXIS,
    MAX_SAMPLES,
    TIME_AXIS,
    DeviceParams,
    TruthEvent,
    conductance,
    transconductance,
)


def big_ensemble(seed=1):
    """Ensemble with ~990 dopant traps so Poisson counting never saturates."""
    return build_ensemble(TrapConfig(active_area=3e-9), seed=seed)


# ---------------------------------------------------------------------------
# event stream
# ---------------------------------------------------------------------------

def test_poisson_event_times_basic():
    rng = np.random.default_rng(0)
    times = poisson_event_times(0.5, 1000.0, rng)
    assert np.all(times > 0) and np.all(times <= 1000.0)
    assert np.all(np.diff(times) > 0)
    assert abs(times.size - 500) < 3 * math.sqrt(500)


def test_poisson_event_times_zero_rate():
    rng = np.random.default_rng(0)
    assert poisson_event_times(0.0, 100.0, rng).size == 0


def masked_event_times(rate, duration, rng):
    """Reference: each block's arrivals kept by a boolean mask, a block at a time."""
    times, t = [], 0.0
    block = max(16, int(rate * duration * 1.25) + 16)
    while True:
        arr = t + np.cumsum(rng.exponential(1.0 / rate, block))
        inside = arr[arr <= duration]
        times.append(inside)
        if inside.size < arr.size:
            return np.concatenate(times)
        t, block = arr[-1], max(16, block // 4)


# seeds 5963 and 6460 draw more than the first block's 96 gaps, so they take
# a tail block (26 of seeds 0..299,999 do)
@pytest.mark.parametrize("rate,duration,seed", [
    (1 / 18, 5400.0, 1), (6.0, 5400.0, 2), (0.01, 5400.0, 3), (100.0, 0.01, 4),
    (64.0, 1.0, 0), (64.0, 1.0, 5963), (64.0, 1.0, 6460),
])
def test_poisson_event_times_match_the_masked_reference(rate, duration, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    times = poisson_event_times(rate, duration, rng)
    assert times.tobytes() == masked_event_times(rate, duration, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("rate,duration,name", [
    (math.nan, 10.0, "rate"), (math.inf, 10.0, "rate"), (-math.inf, 10.0, "rate"),
    (1.0, math.nan, "duration"), (1.0, math.inf, "duration"), (0.0, math.inf, "duration"),
    (1e200, 1e200, "rate * duration"), (-1e200, 1e200, "rate * duration"),
])
def test_poisson_event_times_rejects_non_finite_inputs_before_any_draw(rate, duration, name):
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be finite, got ")):
        poisson_event_times(rate, duration, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("rate,duration", [(1e308, 1.5), (1e6, 1e6)])
def test_poisson_event_times_caps_the_expected_count_before_any_draw(rate, duration):
    # 1.25 x 1.5e308 events overflowed `int`, and 10^12 asked numpy for 9.09 TiB
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(
            f"rate * duration must be <= {MAX_SAMPLES} expected events, got ")):
        poisson_event_times(rate, duration, rng)
    assert rng.bit_generator.state == state


def test_poisson_event_times_takes_the_cap_itself(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_SAMPLES", 100)
    rng = np.random.default_rng(7)
    assert poisson_event_times(10.0, 10.0, rng).size > 0
    with pytest.raises(ValueError, match=r"^rate \* duration must be <= 100 expected events"):
        poisson_event_times(10.0, 10.5, rng)


def test_event_count_at_18s_mean_interval(device):
    # 1800 s at one event per 18 s: about one hundred events
    source = PhotonSource(wavelength=550.0, incident_rate=1.0 / 18.0,
                          quantum_efficiency=1.0)
    config = ExposureConfig(duration=1800.0, noise_sigma=0.0, seed=8)
    trace = simulate_exposure(device, big_ensemble(), source, config)
    n = trace.photons_captured
    assert abs(n - 100) <= 3 * math.sqrt(100)


def test_interval_distribution_is_exponential(device):
    # 1e4 detected events: KS against the fitted exponential at the 5% level
    rng = np.random.default_rng(123)
    times = poisson_event_times(1.0 / 18.0, 18.0 * 10400, rng)
    assert times.size >= 10001
    intervals = np.diff(times[:10001])
    rate = 1.0 / intervals.mean()
    d, _ = stats.kstest(intervals, "expon", args=(0, 1.0 / rate))
    assert d < 1.36 / math.sqrt(intervals.size)


# ---------------------------------------------------------------------------
# simulate_exposure
# ---------------------------------------------------------------------------

def test_dark_run_is_flat_with_no_events(device):
    source = PhotonSource(wavelength=550.0, incident_rate=0.0)
    config = ExposureConfig(duration=600.0, noise_sigma=0.0, seed=3)
    trace = simulate_exposure(device, big_ensemble(), source, config)
    assert trace.photons_captured == 0
    assert trace.photons_incident == 0
    assert np.ptp(trace.conductance) == 0.0


def test_noiseless_saturated_run_reaches_full_shift(noiseless_saturated_exposure,
                                                    device):
    trace, ensemble = noiseless_saturated_exposure
    total = sum(ensemble.couplings[sorted(ensemble.captured)].tolist())
    expected = conductance(trace.config["gate_bias"] + total, device)
    assert trace.conductance[-1] == expected
    assert trace.photons_captured == 99


def test_noiseless_baseline_reconstructs_from_truth_events(device):
    source = PhotonSource()
    config = ExposureConfig(duration=900.0, noise_sigma=0.0, seed=17)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 17), source,
                              config)
    event_times = np.array([e.time for e in trace.truth_events])
    idx = np.searchsorted(event_times, trace.times, side="right")
    levels = cumulative_gate_shift(0.0, [e.coupling for e in trace.truth_events])
    rebuilt = np.asarray(conductance(
        trace.config["gate_bias"] + levels, device))[idx]
    assert np.array_equal(rebuilt, trace.conductance)


def test_noiseless_photo_signal_never_decreases(noiseless_saturated_exposure):
    trace, _ = noiseless_saturated_exposure
    assert np.all(np.diff(trace.conductance) >= 0)


def test_dark_lead_precedes_illumination(noiseless_saturated_exposure):
    trace, _ = noiseless_saturated_exposure
    dark = trace.times < 0
    assert dark.sum() == 120  # 60 s at 0.5 s sampling
    assert np.ptp(trace.conductance[dark]) == 0.0
    assert all(e.time > 0 for e in trace.truth_events)


def test_exposure_deterministic_per_seed(device):
    source = PhotonSource()
    def run(seed):
        config = ExposureConfig(duration=600.0, seed=seed)
        return simulate_exposure(device, build_ensemble(TrapConfig(), 5),
                                 source, config)
    a, b, c = run(9), run(9), run(10)
    assert np.array_equal(a.conductance, b.conductance)
    assert [e.time for e in a.truth_events] == [e.time for e in b.truth_events]
    assert not np.array_equal(a.conductance, c.conductance)


def test_saturated_from_start_gives_flat_trace(device):
    config_traps = TrapConfig(buffer_trap_count=0)
    ensemble = build_ensemble(config_traps, 2)
    ensemble.captured.extend(range(len(ensemble.couplings)))
    config = ExposureConfig(duration=300.0, noise_sigma=0.0, seed=4)
    trace = simulate_exposure(device, ensemble, PhotonSource(), config)
    assert trace.photons_captured == 0
    assert np.ptp(trace.conductance) == 0.0
    assert trace.photons_absorbed > 0  # photons arrive, nothing left to fill


def test_charge_conservation_chain(default_exposure):
    trace, _ = default_exposure
    assert trace.photons_captured <= trace.photons_absorbed
    assert trace.photons_absorbed <= trace.photons_incident


def test_below_gap_photons_are_never_absorbed(device):
    source = PhotonSource(wavelength=1000.0)
    config = ExposureConfig(duration=600.0, seed=6)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 6), source,
                              config)
    assert trace.photons_incident > 0
    assert trace.photons_absorbed == 0
    assert trace.photons_captured == 0


# ---------------------------------------------------------------------------
# simulate_gate_sweep
# ---------------------------------------------------------------------------

def test_noiseless_sweep_equals_model_curve(device):
    trace = simulate_gate_sweep(device, -1.5, -1.3, 301, 0.0, seed=1)
    assert trace.times.tobytes() == np.linspace(-1.5, -1.3, 301).tobytes()
    assert trace.conductance.tobytes() == conductance(trace.times, device).tobytes()
    assert trace.truth_events is None
    assert trace.axis_kind == GATE_AXIS


def test_noisy_sweep_shows_plateaus_within_noise(device):
    sigma = 0.005
    trace = simulate_gate_sweep(device, -1.5, -1.25, 2001, sigma, seed=2)
    model = np.asarray(conductance(trace.times, device))
    for target in (1.0, 2.0):
        plateau = np.abs(model - target) <= 0.002
        assert plateau.sum() > 50
        assert np.abs(trace.conductance[plateau] - target).max() <= 3 * sigma + 0.002


def test_sweep_deterministic_per_seed(device):
    a = simulate_gate_sweep(device, -1.5, -1.3, 200, 0.01, seed=3)
    b = simulate_gate_sweep(device, -1.5, -1.3, 200, 0.01, seed=3)
    assert np.array_equal(a.conductance, b.conductance)


@pytest.mark.parametrize("grid,noise_sigma,match", [
    ((-1.5, -1.3, 100), -0.1, "noise_sigma"), ((-1.5, -1.3, 100), math.nan, "noise_sigma"),
    ((-1.5, -1.3, 100), math.inf, "noise_sigma"), ((-1.3, -1.5, 100), 0.0, "v_start"),
    ((-1.5, math.nan, 100), 0.0, "v_end"), ((-1.5, -1.3, 1), 0.0, "n_points"),
])
def test_sweep_validation(device, monkeypatch, grid, noise_sigma, match):
    # each bad argument is rejected before the model is evaluated
    def evaluate(v, params):
        raise AssertionError("conductance evaluated before the arguments were checked")

    for module in (simulate, transport):
        monkeypatch.setattr(module, "conductance", evaluate)
    with pytest.raises(ValueError, match=match):
        simulate_gate_sweep(device, *grid, noise_sigma, 1)


# ---------------------------------------------------------------------------
# exposure_to_gate_equivalence
# ---------------------------------------------------------------------------

def test_noiseless_remap_matches_model_pointwise(noiseless_saturated_exposure,
                                                 device):
    trace, _ = noiseless_saturated_exposure
    curve = exposure_to_gate_equivalence(trace)
    model = np.asarray(conductance(curve.times, device))
    assert np.abs(curve.conductance - model).max() < 1e-9
    assert curve.axis_kind == GATE_AXIS
    assert curve.times[0] == trace.config["gate_bias"]


def test_remap_of_eventless_trace_is_single_point(device):
    source = PhotonSource(incident_rate=0.0)
    config = ExposureConfig(duration=120.0, noise_sigma=0.0, seed=5)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 3), source,
                              config)
    curve = exposure_to_gate_equivalence(trace)
    assert len(curve) == 1
    assert curve.times[0] == config.gate_bias


def test_remap_names_a_mistyped_gate_bias(default_exposure, tmp_path):
    trace, _ = default_exposure
    lines = trace_to_text(trace).splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("# gate_bias=")]
    assert len(at) == 1
    lines[at[0]] = "# gate_bias=true"
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^gate_bias must be float, got True$"):
        exposure_to_gate_equivalence(read_trace(path))


def test_remap_names_a_missing_gate_bias(default_exposure, tmp_path):
    # read as 0.0, the remapped curve started at 0 V instead of the run's bias
    trace, _ = default_exposure
    lines = trace_to_text(trace).splitlines()
    kept = [line for line in lines if not line.startswith("# gate_bias=")]
    assert len(kept) == len(lines) - 1
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="^trace header lacks gate_bias$"):
        exposure_to_gate_equivalence(read_trace(path))


def test_remap_requires_truth_events(device):
    trace = simulate_gate_sweep(device, -1.5, -1.3, 50, 0.0, 1)
    with pytest.raises(ValueError):
        exposure_to_gate_equivalence(trace)


def test_staircase_envelope_bounded_by_coupling_times_slope(
        noiseless_saturated_exposure, device):
    trace, ensemble = noiseless_saturated_exposure
    curve = exposure_to_gate_equivalence(trace)
    v_dense = np.linspace(curve.times[0], curve.times[-1], 4000)
    smooth = np.asarray(conductance(v_dense, device))
    idx = np.searchsorted(curve.times, v_dense, side="right") - 1
    stairs = curve.conductance[idx]
    max_coupling = max(e.coupling for e in trace.truth_events)
    max_slope = float(np.max(transconductance(v_dense, device)))
    assert np.abs(stairs - smooth).max() < max_coupling * max_slope


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def test_trace_roundtrip_is_bit_exact(default_exposure):
    trace, _ = default_exposure
    back = trace_from_text(trace_to_text(trace))
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.conductance, trace.conductance)
    assert back.config == trace.config
    assert back.axis_kind == trace.axis_kind
    assert back.photons_incident == trace.photons_incident
    assert back.photons_absorbed == trace.photons_absorbed
    assert len(back.truth_events) == len(trace.truth_events)
    for a, b in zip(back.truth_events, trace.truth_events):
        assert a == b
    # serialization of the reread trace is byte-identical
    assert trace_to_text(back) == trace_to_text(trace)


def test_sweep_trace_roundtrip_keeps_axis(device, tmp_path):
    trace = simulate_gate_sweep(device, -1.5, -1.3, 64, 0.002, seed=5)
    path = tmp_path / "sweep.csv"
    path.write_text(trace_to_text(trace), encoding="utf-8")
    back = read_trace(path)
    assert back.axis_kind == GATE_AXIS
    assert back.truth_events is None
    assert np.array_equal(back.conductance, trace.conductance)


def test_pre_occupied_ensemble_roundtrips_with_initial_shift(device):
    # trapped charge from an earlier run persists into the next trace file
    ensemble = build_ensemble(TrapConfig(), 15)
    first = simulate_exposure(device, ensemble, PhotonSource(),
                              ExposureConfig(duration=800.0, seed=15))
    assert first.photons_captured > 0
    second = simulate_exposure(device, ensemble, PhotonSource(),
                               ExposureConfig(duration=800.0, seed=16))
    assert second.config["initial_gate_shift"] > 0
    back = trace_from_text(trace_to_text(second))
    for a, b in zip(back.truth_events, second.truth_events):
        assert a == b
    assert np.array_equal(back.conductance, second.conductance)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(buffer_count=st.integers(0, 300),
       wavelength=st.sampled_from([550.0, 700.0]),        # dopant or buffer layer
       incident_rate=st.sampled_from([0.05, 1.0, 6.0]),   # partial to saturating
       durations=st.lists(st.sampled_from([100.0, 500.0, 2000.0]), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_each_run_starts_where_the_previous_run_ended(device, buffer_count, wavelength,
                                                      incident_rate, durations, seed):
    # the trapped charge a run leaves is the next run's starting shift, bit
    # for bit, and so is the conductance it ends on (noiseless runs)
    ensemble = build_ensemble(TrapConfig(buffer_trap_count=buffer_count), seed)
    source = PhotonSource(wavelength=wavelength, incident_rate=incident_rate)
    previous = None
    for k, duration in enumerate(durations):
        trace = simulate_exposure(device, ensemble, source, ExposureConfig(
            duration=duration, noise_sigma=0.0, seed=seed + k))
        if previous is not None:
            last_shift = cumulative_gate_shift(previous.config["initial_gate_shift"],
                                               [e.coupling for e in previous.truth_events])[-1]
            assert trace.config["initial_gate_shift"] == last_shift
            assert trace.conductance[0] == previous.conductance[-1]
        previous = trace


def test_each_capture_and_run_passes_through_the_benchmark_span_points(device,
                                                                      monkeypatch):
    # the benchmark times charge by wrapping these two names: one
    # capture_photon call per capture, one effective_gate_shift call per run
    from qpcsim import charge, simulate
    calls = {"capture_photon": 0, "effective_gate_shift": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(charge, "capture_photon")
    counted(simulate, "effective_gate_shift")
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 1), PhotonSource(),
                              ExposureConfig())
    assert trace.photons_captured == 99
    assert calls == {"capture_photon": 99, "effective_gate_shift": 1}


def test_exposure_scans_the_free_traps_once(device, monkeypatch):
    # capture_photons makes the run's one scan for empty traps
    from qpcsim import charge, simulate
    calls = []
    scan = charge.free_traps
    monkeypatch.setattr(charge, "free_traps", lambda *args: calls.append(args) or scan(*args))
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 1), PhotonSource(),
                              ExposureConfig())
    assert trace.photons_captured == 99 and len(calls) == 1
    assert not hasattr(simulate, "free_traps")


@pytest.fixture(scope="module")
def buffer_exposure_and_kept_objects(device):
    """The 700 nm run over 8,000 buffer traps, and the GC-tracked objects it left alive."""
    ensemble = build_ensemble(TrapConfig(buffer_trap_count=8000), 1)
    source = PhotonSource(wavelength=700.0, incident_rate=6.0)
    conductance(0.0, device)  # the device's table is cached before counting
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        trace = simulate_exposure(device, ensemble, source, ExposureConfig(duration=5400.0))
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return trace, kept


def test_exposure_keeps_its_capture_log_as_one_float_array(buffer_exposure_and_kept_objects):
    # one (time, coupling) row per capture, and no Python object per capture
    trace, kept = buffer_exposure_and_kept_objects
    assert kept < 100  # a named tuple per capture would keep over 8,000
    assert trace.events.shape == (8000, 2) and trace.events.dtype == np.float64


def test_truth_events_is_a_new_list_built_from_the_event_array(
        buffer_exposure_and_kept_objects):
    trace, _ = buffer_exposure_and_kept_objects
    events = trace.truth_events
    assert events == [TruthEvent(t, c) for t, c in trace.events.tolist()]
    assert np.array(events).tobytes() == trace.events.tobytes()
    text, rows = trace_to_text(trace), trace.events.copy()
    events.append((1e9, 1.0))
    assert len(trace.truth_events) == 8000 and trace.truth_events is not events
    assert np.array_equal(trace.events, rows) and trace_to_text(trace) == text


@pytest.mark.parametrize("events, message", [
    # out of order: trace_to_text would write a file that does not read back
    ([(2.0, 1e-3), (1.0, 1e-3)], "events section: times must be"),
    ([(math.nan, 1e-3)], "events section: times must be finite"),
    (np.zeros((2, 3)), r"events must have shape \(k, 2\), got \(2, 3\)"),
    (np.zeros(4), r"events must have shape \(k, 2\), got \(4,\)"),
])
def test_trace_holds_its_event_log_to_the_file_rule(events, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        Trace(TIME_AXIS, [0.0, 1.0], [0.1, 0.2], events)


def test_trace_takes_any_rows_of_time_and_coupling():
    for rows in ([], [(0.5, 1e-3), (0.5, 2e-3)], np.array([[0.5, 1e-3], [0.5, 2e-3]])):
        trace = Trace(TIME_AXIS, [0.0, 1.0], [0.1, 0.2], rows)
        assert trace.events.shape == (len(rows), 2)
        assert trace.truth_events == [TruthEvent(t, c) for t, c in rows]


def test_a_trace_cannot_be_edited_through_the_arrays_it_was_given():
    times, values = np.array([0.0, 1.0]), np.array([0.1, 0.2])
    rows = np.array([[0.5, 1e-3], [0.7, 1e-3]])
    trace = Trace(TIME_AXIS, times, values, rows)
    text = trace_to_text(trace)
    for array, at in ((rows, (0, 0)), (times, 0), (values, 1)):
        try:
            array[at] = 9.0
        except ValueError:  # read-only: the trace took the array as its own
            pass
    assert trace_to_text(trace) == text
    back = trace_from_text(text)
    assert back.events.tobytes() == rows.tobytes() and back.times.tobytes() == times.tobytes()


def test_a_trace_copies_a_view_it_is_given():
    block = np.array([[0.0, 0.1], [1.0, 0.2], [2.0, 0.3]])
    trace = Trace(GATE_AXIS, block[:, 0], block[:, 1], block[1:])
    block[:] = 5.0  # the caller can still write the base of those views
    assert trace.times.tolist() == [0.0, 1.0, 2.0]
    assert trace.conductance.tolist() == [0.1, 0.2, 0.3]
    assert trace.events.tolist() == [[1.0, 0.2], [2.0, 0.3]]
    assert not any(np.shares_memory(block, a) for a in (trace.times, trace.conductance,
                                                         trace.events))


def test_read_and_simulated_traces_own_read_only_arrays(default_exposure):
    trace, _ = default_exposure
    back = trace_from_text(trace_to_text(trace))
    for t in (trace, back):
        for a in (t.times, t.conductance, t.events):
            assert a.flags.owndata and not a.flags.writeable


def test_device_snapshot_roundtrip(default_exposure, device):
    trace, _ = default_exposure
    assert device_from_config(trace.config) == device


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        Trace(TIME_AXIS, [0.0, 0.5, 1.0], [0.1, bad, 0.2], None)
    with pytest.raises(ValueError, match="finite"):
        Trace(TIME_AXIS, [bad], [0.1], None)


@pytest.mark.parametrize("bad", [7.9, 7.0, True, np.True_, "7", -1, np.int64(-1)])
def test_trace_rejects_a_photon_count_that_cannot_read_back(bad):
    for name in ("photons_incident", "photons_absorbed"):
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 0, got "):
            Trace(TIME_AXIS, [0.0], [0.1], None, {}, **{name: bad})


def test_trace_takes_numpy_integer_photon_counts():
    trace = Trace(TIME_AXIS, [0.0], [0.1], None, {}, np.int64(7), np.uint8(3))
    back = trace_from_text(trace_to_text(trace))
    assert (back.photons_incident, back.photons_absorbed) == (7, 3)


def test_exposure_expected_photon_count_is_capped(device):
    # 5.4e12 expected photons: rejected before any draw, the ensemble untouched
    ensemble = build_ensemble(TrapConfig(), 3)
    with pytest.raises(ValueError, match=r"^incident_rate \* duration must be <= "):
        simulate_exposure(device, ensemble, PhotonSource(incident_rate=1e9),
                          ExposureConfig())
    assert ensemble.captured == []


def test_exposure_config_validation():
    with pytest.raises(ValueError):
        ExposureConfig(duration=0.0)
    with pytest.raises(ValueError):
        ExposureConfig(sample_interval=0.0)
    with pytest.raises(ValueError):
        ExposureConfig(noise_sigma=-1.0)


def _time_trace():
    return Trace(TIME_AXIS, np.arange(3.0), np.ones(3))


@pytest.mark.parametrize("build, message", [
    (lambda: TrapConfig(buffer_trap_count=-1), "buffer_trap_count must be >= 0"),
    (lambda: TrapConfig(buffer_coupling_scale=0.0), "buffer_coupling_scale must be > 0"),
    (lambda: TrapConfig(buffer_coupling_scale=-1e-5), "buffer_coupling_scale must be > 0"),
    (lambda: PhotonSource(incident_rate=-0.1), "incident_rate must be >= 0"),
    (lambda: ExposureConfig(dark_lead=-1.0), "dark_lead must be >= 0"),
    (lambda: DeviceParams(tunnel_width=0.0), "tunnel_width must be > 0"),
    (lambda: DeviceParams(tunnel_width=-0.5), "tunnel_width must be > 0"),
    (lambda: Trace(GATE_AXIS, np.arange(3.0), np.ones(2)),
     "times and conductance must have the same length"),
    (lambda: transport.differential_conductance(_time_trace()),
     "differential conductance requires a gate-voltage curve"),
    (lambda: exposure_to_gate_equivalence(
        Trace(GATE_AXIS, np.arange(3.0), np.ones(3), [(1.0, 1e-3)], {"gate_bias": -1.5})),
     "only time-axis exposure traces can be remapped"),
])
def test_out_of_range_settings_and_wrong_traces_are_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


@pytest.mark.parametrize("cls", [DeviceParams, TrapConfig, PhotonSource, ExposureConfig,
                                 AnalysisConfig])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_float_config_field_must_be_finite(cls, bad):
    names = [f.name for f in fields(cls) if isinstance(getattr(cls(), f.name), float)]
    assert names
    for name in names:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: bad})


def test_exposure_sample_count_is_capped():
    # samples at 0, 1, ..., duration: MAX_SAMPLES of them, then one more
    ExposureConfig(dark_lead=0.0, duration=float(MAX_SAMPLES - 1), sample_interval=1.0)
    for dark_lead, duration in ((0.0, MAX_SAMPLES), (1.0, MAX_SAMPLES - 1)):
        with pytest.raises(ValueError, match="sample_interval"):
            ExposureConfig(dark_lead=dark_lead, duration=float(duration), sample_interval=1.0)
    with pytest.raises(ValueError, match="sample_interval"):
        ExposureConfig(sample_interval=5e-324)


def test_exposure_sample_cap_counts_the_samples_drawn(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_SAMPLES", 100)
    for dark_lead, duration, interval in ((0.0, 99.0, 1.0), (1.5, 48.0, 0.5), (0.0, 9.9, 0.1)):
        config = ExposureConfig(dark_lead=dark_lead, duration=duration, sample_interval=interval)
        assert simulate._sample_times(config).size == 100
        with pytest.raises(ValueError, match="sample_interval"):
            ExposureConfig(dark_lead=dark_lead, duration=duration + interval,
                           sample_interval=interval)


def test_trace_file_with_two_events_sections_is_rejected():
    one_event = "events\ntime_s,coupling_V\n1.0,0.002\n"
    text = "# qpcsim trace v1\n# axis=exposure-time\ntime_s,conductance_G0\n0.0,0.1\n"
    assert len(trace_from_text(text + one_event).truth_events) == 1
    with pytest.raises(ValueError, match="more than one events section"):
        trace_from_text(text + one_event + one_event)
