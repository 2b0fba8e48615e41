"""Acceptance criteria, one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -s` to see every line.
"""

import contextlib
import math
import time

import numpy as np

from qpcsim.analyze import (
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    correlate_heights,
    detect_steps,
    fit_exponential,
    saturation_summary,
)
from qpcsim.charge import (
    PhotonSource,
    TrapConfig,
    TrapEnsemble,
    build_ensemble,
    cumulative_gate_shift,
)
from qpcsim.cli import main, subseed
from qpcsim.simulate import (
    ExposureConfig,
    Trace,
    exposure_to_gate_equivalence,
    poisson_event_times,
    simulate_exposure,
    simulate_gate_sweep,
)
from qpcsim.transport import (
    TIME_AXIS,
    DeviceParams,
    conductance,
    differential_conductance,
)


@contextlib.contextmanager
def criterion(number: int, text: str):
    detail = {}
    try:
        yield detail
    except BaseException:
        extra = f" [{detail.get('note')}]" if detail.get("note") else ""
        print(f"FAIL criterion {number}: {text}{extra}")
        raise
    extra = f" [{detail.get('note')}]" if detail.get("note") else ""
    print(f"PASS criterion {number}: {text}{extra}")


def contiguous_flat_spans(v, g, target, tol=0.02):
    ok = np.abs(g - target) <= tol
    best = 0.0
    i = 0
    while i < len(v):
        if ok[i]:
            j = i
            while j + 1 < len(v) and ok[j + 1]:
                j += 1
            best = max(best, v[j] - v[i])
            i = j + 1
        else:
            i += 1
    return best


def test_criterion_1_plateau_quantization(device):
    with criterion(1, "plateaus at 1.00 and 2.00 flat within 0.02 over >=20% "
                      "of the 0.2 V span, in under 1 s") as detail:
        start = time.perf_counter()
        curve = simulate_gate_sweep(device, device.threshold_voltage,
                                    device.threshold_voltage + 0.3, 601)
        elapsed = time.perf_counter() - start
        span1 = contiguous_flat_spans(curve.times, curve.conductance, 1.0)
        span2 = contiguous_flat_spans(curve.times, curve.conductance, 2.0)
        detail["note"] = (f"flat@1 {span1/0.2:.0%}, flat@2 {span2/0.2:.0%} "
                          f"of 0.2 V, {elapsed*1e3:.0f} ms")
        assert span1 >= 0.2 * 0.2
        assert span2 >= 0.2 * 0.2
        assert elapsed < 1.0


def test_criterion_2_conductance_shoulder(device):
    with criterion(2, "dG/dVg local minimum at G in [0.6, 0.8] with the "
                      "shoulder model enabled") as detail:
        curve = simulate_gate_sweep(device, device.threshold_voltage,
                                    device.threshold_voltage + 0.3, 3001)
        dgdv = differential_conductance(curve).conductance
        g = curve.conductance
        dips = [g[i] for i in range(1, len(g) - 1)
                if dgdv[i] < dgdv[i - 1] and dgdv[i] <= dgdv[i + 1]
                and 0.3 < g[i] < 0.95]
        detail["note"] = f"dip at G = {dips[0]:.3f}" if dips else "no dip"
        assert any(0.6 <= gv <= 0.8 for gv in dips)


def test_criterion_3_gate_photo_equivalence(noiseless_saturated_exposure,
                                            device):
    with criterion(3, "noiseless saturated exposure remapped to the voltage "
                      "axis matches the gate sweep within 0.05") as detail:
        trace, _ = noiseless_saturated_exposure
        curve = exposure_to_gate_equivalence(trace)
        model = np.asarray(conductance(curve.times, device))
        deviation = float(np.abs(curve.conductance - model).max())
        detail["note"] = f"max deviation {deviation:.2e} G0"
        assert deviation <= 0.05


def test_criterion_4_photon_statistics():
    with criterion(4, "1e4 events at rate 1/18: MLE mean 18 s +-3%, KS below "
                      "1.36/sqrt(n), in under 10 s") as detail:
        start = time.perf_counter()
        rng = np.random.default_rng(180_000)
        times = poisson_event_times(1.0 / 18.0, 18.0 * 10_400, rng)
        assert times.size >= 10_001
        fit = fit_exponential(np.diff(times[:10_001]))
        elapsed = time.perf_counter() - start
        detail["note"] = (f"mean {fit.mean_interval:.2f} s, "
                          f"KS {fit.ks_statistic:.4f} vs {1.36/100:.4f}, "
                          f"{elapsed:.2f} s")
        assert abs(fit.mean_interval - 18.0) <= 0.03 * 18.0
        assert fit.ks_statistic < 1.36 / math.sqrt(10_000)
        assert elapsed < 10.0


def test_criterion_5_saturation(default_exposure, noiseless_saturated_exposure,
                                device):
    with criterion(5, "default exposure saturates, detected step count in "
                      "[60, 100], post-saturation photons change nothing") as detail:
        trace, _ = default_exposure
        steps = detect_steps(trace)
        count = len(steps)
        saturated, rise = saturation_summary(steps, trace)
        assert saturated

        # photons on the fully filled ensemble leave the conductance untouched
        _, sat_ensemble = noiseless_saturated_exposure
        extra = simulate_exposure(device, sat_ensemble, PhotonSource(),
                                  ExposureConfig(duration=600.0,
                                                 noise_sigma=0.0, seed=99))
        assert extra.photons_captured == 0
        assert float(np.ptp(extra.conductance)) == 0.0

        detail["note"] = (f"saturated, rise {rise:.2f} G0, detected {count} "
                          f"steps; [60, 100] is unreachable with plateaus this "
                          f"flat, see the criterion-5 paragraph in README.md")
        assert 60 <= count <= 100


def test_criterion_5_window_is_out_of_reach_of_the_default_run(device):
    # The most steps a detector at the default window (12) and threshold (4)
    # can find: the captures whose noiseless step G(v + c) - G(v) clears its
    # floor of 4 sigma sqrt(2/12), 0.00816 G0 at sigma = 0.005.  On seeds 1, 3
    # and 57 that is 44, 44 and 43 of 99 captures, and the detector finds 39,
    # 41 and 41.  A detector that averaged the whole segments between captures
    # (n_before and n_after samples, both > 0) would face a floor of
    # 4 sigma sqrt(1/n_before + 1/n_after): that segment bound is 48, 47 and 54.
    # A calibration or model change meant to mend criterion 5 must first move
    # these bounds to 60 or more.
    for seed in (1, 3, 57):
        config = ExposureConfig(seed=subseed(seed, "exposure"))
        trace = simulate_exposure(device, build_ensemble(TrapConfig(), subseed(seed, "ensemble")),
                                  PhotonSource(), config)
        levels = cumulative_gate_shift(trace.config["initial_gate_shift"], trace.events[:, 1])
        steps = np.diff(conductance(config.gate_bias + levels, device))
        floor = DEFAULT_THRESHOLD * config.noise_sigma * math.sqrt(2.0 / DEFAULT_WINDOW)
        bound = int(np.sum(steps > floor))
        assert bound < 60, f"seed {seed}: {bound} captures clear the floor"
        assert len(detect_steps(trace)) <= bound

        level = np.searchsorted(trace.events[:, 0], trace.times, side="right")
        segment = np.bincount(level, minlength=levels.size)
        before, after = segment[:-1], segment[1:]
        with np.errstate(divide="ignore"):
            floors = DEFAULT_THRESHOLD * config.noise_sigma * np.sqrt(1.0 / before + 1.0 / after)
        segment_bound = int(np.sum(steps > floors))  # an empty segment's floor is inf
        assert bound <= segment_bound < 60, f"seed {seed}: segment bound {segment_bound}"


def test_criterion_6_height_correlation(device):
    with criterion(6, "constant-coupling r >= 0.999; variable-coupling mean "
                      "implied coupling within 15% of configured") as detail:
        # 99 dopant traps, every coupling the mean 0.025 V / 99
        traps = TrapConfig(saturation_gate_shift=0.025)
        n = traps.dopant_trap_count
        constant = TrapEnsemble(np.full(n, traps.mean_dopant_coupling), n)
        source = PhotonSource(wavelength=550.0, incident_rate=0.004,
                              quantum_efficiency=1.0)
        config = ExposureConfig(duration=33_000.0, noise_sigma=0.0, seed=1)
        trace = simulate_exposure(device, constant, source, config)
        steps = detect_steps(trace, window=4, threshold=5.0)
        r, _, _ = correlate_heights(steps, trace, device, window=4)

        traps_var = TrapConfig()
        source_var = PhotonSource(wavelength=550.0, incident_rate=0.01,
                                  quantum_efficiency=1.0)
        config_var = ExposureConfig(duration=14_000.0, noise_sigma=0.0,
                                    seed=105)
        trace_var = simulate_exposure(device, build_ensemble(traps_var, 5),
                                      source_var, config_var)
        steps_var = detect_steps(trace_var, window=8, threshold=5.0)
        _, implied, _ = correlate_heights(steps_var, trace_var, device,
                                          window=8)
        valid = np.array([c for c in implied if not math.isnan(c)])
        mean_err = abs(valid.mean() - traps_var.mean_dopant_coupling) \
            / traps_var.mean_dopant_coupling
        detail["note"] = (f"r = {r:.6f}; mean implied "
                          f"{valid.mean()*1e3:.2f} mV vs configured "
                          f"{traps_var.mean_dopant_coupling*1e3:.2f} mV "
                          f"({mean_err:.1%})")
        assert r >= 0.999
        assert mean_err <= 0.15


def test_criterion_7_detector_quality(device):
    with criterion(7, "recall and precision >= 0.95 at 5-sigma heights; <=1 "
                      "false positive per 1e4 dark samples at threshold 5; "
                      "downward excursions never accepted") as detail:
        window, sigma = 12, 0.005
        hits = misses = false = 0
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            n_steps = 25
            step_times = (60.0 + np.arange(n_steps) * 75.0
                          + rng.uniform(0, 30.0, n_steps))
            heights = rng.uniform(5 * sigma, 10 * sigma, n_steps)
            times = np.arange(4200) * 0.5
            values = np.full(4200, 0.4)
            for t0, h in zip(step_times, heights):
                values[times >= t0] += h
            values = values + rng.normal(0, sigma, 4200)
            trace = Trace(TIME_AXIS, times, values, [], {})
            det = detect_steps(trace, window=window, threshold=5.0)[:, 0]
            for t0 in step_times:
                if det.size and np.min(np.abs(det - t0)) <= window * 0.5:
                    hits += 1
                else:
                    misses += 1
            for td in det:
                if np.min(np.abs(step_times - td)) > window * 0.5:
                    false += 1
        recall = hits / (hits + misses)
        precision = hits / (hits + false)

        max_dark_fp = 0
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            dark = Trace(TIME_AXIS, np.arange(10_000) * 0.5,
                         0.5 + rng.normal(0, sigma, 10_000), [], {})
            max_dark_fp = max(max_dark_fp,
                              len(detect_steps(dark, window=12, threshold=5.0)))

        rng = np.random.default_rng(6000)
        times = np.arange(8000) * 0.5
        values = np.full(8000, 0.8)
        for t0 in (400.0, 1200.0, 2000.0, 2800.0, 3600.0):
            values[times >= t0] += 0.05          # telegraph up
            values[times >= t0 + 200.0] -= 0.05  # telegraph down
        values = values + rng.normal(0, sigma, 8000)
        rts = detect_steps(Trace(TIME_AXIS, times, values, [], {}),
                           window=12, threshold=5.0)
        detail["note"] = (f"recall {recall:.3f}, precision {precision:.3f}, "
                          f"max dark FP {max_dark_fp}/1e4 samples")
        assert recall >= 0.95
        assert precision >= 0.95
        assert max_dark_fp <= 1
        assert np.all(rts[:, 1] > 0)


def test_criterion_8_numerical_oracles(by_quadrature):
    with criterion(8, "cold limit matches the unbroadened sum within 1e-6; "
                      "quadrature doubling < 1e-8; derivative consistency "
                      "within 1e-6") as detail:
        cold = DeviceParams(temperature=0.001)
        rng = np.random.default_rng(88)
        worst_cold = 0.0
        for v in rng.uniform(-1.55, -1.15, 100):
            g = conductance(float(v), cold)
            total = 0.0
            for n in range(cold.num_modes):
                eps = cold.subband_bottom(n, float(v))
                z = -2.0 * math.pi * (cold.fermi_energy - eps) / cold.tunnel_width
                t = 1.0 / (1.0 + math.exp(max(min(z, 700.0), -700.0)))
                if n == 0 and cold.anomaly_enabled:
                    z2 = -2.0 * math.pi * (cold.fermi_energy - eps
                                           - cold.anomaly_split) / cold.tunnel_width
                    t2 = 1.0 / (1.0 + math.exp(max(min(z2, 700.0), -700.0)))
                    t = cold.anomaly_weight * t + (1 - cold.anomaly_weight) * t2
                total += t
            worst_cold = max(worst_cold, abs(g - total))

        device = DeviceParams()
        v = np.linspace(-1.52, -1.18, 150)
        doubling = float(np.abs(
            np.asarray(conductance(v, device))
            - np.asarray(by_quadrature(v, device, 320))).max())

        curve = simulate_gate_sweep(device, -1.49, -1.3, 501)
        d = differential_conductance(curve).conductance
        vv, gg = curve.times, curve.conductance
        fd = (gg[2:] - gg[:-2]) / (vv[2:] - vv[:-2])
        deriv = float(np.abs(d[1:-1] - fd).max())
        detail["note"] = (f"cold {worst_cold:.1e}, doubling {doubling:.1e}, "
                          f"derivative {deriv:.1e}")
        assert worst_cold < 1e-6
        assert doubling < 1e-8
        assert deriv < 1e-6


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config and seed give byte-identical trace "
                      "and report files") as detail:
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["expose", "--out", str(out), "--duration", "2000",
                         "--seed", "7"]) == 0
            assert main(["analyze", str(out / "exposure_trace.csv"),
                         "--out", str(out)]) == 0
            outputs.append(out)
        trace_a = (outputs[0] / "exposure_trace.csv").read_bytes()
        trace_b = (outputs[1] / "exposure_trace.csv").read_bytes()
        report_a = (outputs[0] / "analysis_report.txt").read_bytes()
        report_b = (outputs[1] / "analysis_report.txt").read_bytes()
        detail["note"] = f"{len(trace_a)} trace bytes, {len(report_a)} report bytes"
        assert trace_a == trace_b
        assert report_a == report_b
