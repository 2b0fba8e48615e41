import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import qpcsim
from qpcsim import analyze
from qpcsim.analyze import (
    AnalysisConfig,
    _mean_difference,
    _median,
    analyze_trace,
    correlate_heights,
    detect_steps,
    estimate_noise_sigma,
    fit_exponential,
    interval_statistics,
    report_to_text,
    saturation_summary,
)
from qpcsim.charge import PhotonSource, TrapConfig, TrapEnsemble, build_ensemble
from qpcsim.simulate import (
    ExposureConfig,
    Trace,
    poisson_event_times,
    simulate_exposure,
)
from qpcsim.transport import TIME_AXIS


def staircase_trace(step_times, heights, n=2000, dt=0.5, sigma=0.0, seed=0,
                    base=1.0):
    """Synthetic time trace with known steps (ground truth for the detector)."""
    times = np.arange(n) * dt
    values = np.full(n, base, dtype=float)
    for t0, h in zip(step_times, heights):
        values[times >= t0] += h
    if sigma > 0:
        values = values + np.random.default_rng(seed).normal(0, sigma, n)
    return Trace(TIME_AXIS, times, values, [], {"gate_bias": -1.5})


# ---------------------------------------------------------------------------
# detect_steps
# ---------------------------------------------------------------------------

def test_clean_staircase_detected_exactly():
    step_times = [100.0, 250.0, 400.0, 550.0, 700.0]
    trace = staircase_trace(step_times, [0.05] * 5)
    steps = detect_steps(trace, window=12, threshold=5.0)
    assert len(steps) == 5
    for (time, height, _), t0 in zip(steps, step_times):
        assert abs(height - 0.05) < 1e-9
        assert abs(time - t0) <= 0.5
    assert np.all(np.diff(steps[:, 0]) > 0)


def test_flat_noiseless_trace_yields_nothing():
    trace = staircase_trace([], [])
    assert detect_steps(trace, window=12, threshold=5.0).shape == (0, 3)


def test_dark_noise_false_positives_below_one_per_10k_samples():
    # threshold 5: Gaussian tail bound keeps false alarms at the <=1 level
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        trace = Trace(TIME_AXIS, np.arange(10_000) * 0.5,
                      1.0 + rng.normal(0, 0.005, 10_000), [], {})
        assert len(detect_steps(trace, window=12, threshold=5.0)) <= 1


def test_downward_step_never_accepted():
    trace = staircase_trace([300.0], [-0.05], sigma=0.005, seed=5)
    assert detect_steps(trace, window=12, threshold=5.0).shape == (0, 3)


def test_mixed_direction_only_upward_accepted():
    trace = staircase_trace([200.0, 400.0, 600.0], [0.05, -0.05, 0.05],
                            sigma=0.005, seed=6)
    steps = detect_steps(trace, window=12, threshold=5.0)
    assert len(steps) == 2
    assert np.all(steps[:, 1] > 0)


def test_two_candidates_in_one_window_keep_larger():
    # two jumps three samples apart merge; the reported step is single
    trace = staircase_trace([100.0, 101.5], [0.05, 0.08])
    steps = detect_steps(trace, window=12, threshold=5.0)
    assert len(steps) == 1
    assert steps[0, 1] == pytest.approx(0.13, abs=0.03)


def test_detector_preconditions():
    trace = staircase_trace([], [], n=30)
    with pytest.raises(ValueError):
        detect_steps(trace, window=1, threshold=5.0)
    with pytest.raises(ValueError):
        detect_steps(trace, window=20, threshold=5.0)  # needs 2*window samples


def test_detector_rejects_gate_axis(device):
    from qpcsim.simulate import simulate_gate_sweep
    sweep_trace = simulate_gate_sweep(device, -1.5, -1.3, 200, 0.0, 1)
    with pytest.raises(ValueError):
        detect_steps(sweep_trace, window=12, threshold=5.0)


def test_noise_estimate_recovers_sigma():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 0.005, 20_000)
    assert estimate_noise_sigma(x) == pytest.approx(0.005, rel=0.05)
    assert estimate_noise_sigma(np.full(100, 2.0)) == 0.0


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0, -2.5])


@settings(max_examples=300, derandomize=True)
@example([-0.0])
@example([-0.0, -0.0, 0.0, -0.0])
@example([1e300, 1e300, -1e-300])
@given(st.lists(_EDGE_VALUES | st.floats(-1e300, 1e300), min_size=1, max_size=40))
def test_median_equals_numpy_median_bit_for_bit(values):
    x = np.array(values)
    assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()


@pytest.mark.parametrize("window", [2, 12, 100])
def test_mean_difference_is_the_indexed_statistic_bit_for_bit(default_exposure, window):
    x = default_exposure[0].conductance
    c = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(window, x.size - window + 1)
    want = (c[i + window] - 2.0 * c[i] + c[i - window]) / window
    assert _mean_difference(x, window).tobytes() == want.tobytes()


def test_analyze_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma (~15 ms) on first use; analyze never calls it
    from qpcsim.cli import main
    assert main(["expose", "--duration", "600", "--out", str(tmp_path)]) == 0
    code = ("import sys; from qpcsim.cli import main; "
            f"code = main(['analyze', {str(tmp_path / 'exposure_trace.csv')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(qpcsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_detector_recall_and_precision_on_strong_steps():
    # heights >= 5 sigma, spacing >= 2 windows: both rates reach 0.95
    window, sigma = 12, 0.005
    hits = misses = false = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        n_steps = 25
        step_times = (60.0 + np.arange(n_steps) * 75.0
                      + rng.uniform(0, 30.0, n_steps))
        heights = rng.uniform(5 * sigma, 10 * sigma, n_steps)
        trace = staircase_trace(step_times, heights, n=4200, sigma=sigma,
                                seed=seed)
        steps = detect_steps(trace, window=window, threshold=5.0)
        det = steps[:, 0]
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
    assert recall >= 0.95
    assert precision >= 0.95


def test_rts_contaminated_trace_yields_only_upward_events(device):
    source = PhotonSource(incident_rate=0.0)
    config = ExposureConfig(duration=4000.0, noise_sigma=0.005, seed=9)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 9), source,
                              config)
    # a two-level fluctuator: the level flips at each Poisson switching time
    switches = trace.times[0] + poisson_event_times(
        0.005, trace.times[-1] - trace.times[0], np.random.default_rng(10))
    flips = np.searchsorted(switches, trace.times, side="right")
    contaminated = Trace(trace.axis_kind, trace.times,
                         trace.conductance + 0.05 * (flips % 2), config=trace.config)
    steps = detect_steps(contaminated, window=12, threshold=5.0)
    assert np.all(steps[:, 1] > 0)
    # the fluctuator really did move both ways
    assert (np.diff(contaminated.conductance) < -0.04).any()


# ---------------------------------------------------------------------------
# interval_statistics: the histogram
# ---------------------------------------------------------------------------

def test_histogram_of_regular_events():
    _, (starts, counts) = interval_statistics(np.array([0.0, 18.0, 36.0]), bin_width=6.0)
    assert counts.sum() == 2
    assert counts[3] == 2          # both 18 s intervals in the [18, 24) bin
    assert starts[3] == 18.0


def test_histogram_of_poisson_events_decays_exponentially():
    rng = np.random.default_rng(77)
    intervals = rng.exponential(18.0, 10_000)
    times = np.concatenate([[0.0], np.cumsum(intervals)])
    _, (starts, counts) = interval_statistics(times, bin_width=6.0)
    keep = counts >= 10
    slope = np.polyfit(starts[keep] + 3.0, np.log(counts[keep]), 1)[0]
    assert slope == pytest.approx(-1.0 / 18.0, rel=0.10)
    # counts fall monotonically within statistical noise: compare coarse pairs
    coarse = counts[:12].reshape(6, 2).sum(axis=1)
    assert np.all(np.diff(coarse) < 0)


# ---------------------------------------------------------------------------
# fit_exponential
# ---------------------------------------------------------------------------

def test_fit_constant_intervals_degenerate():
    fit = fit_exponential([18.0] * 50)
    assert fit.mean_interval == pytest.approx(18.0)
    assert fit.rate == pytest.approx(1.0 / 18.0)
    assert fit.ks_statistic > 0.4  # nothing like an exponential


def test_fit_two_intervals_arithmetic():
    fit = fit_exponential([9.0, 27.0])
    assert fit.mean_interval == pytest.approx(18.0)
    assert fit.rate == pytest.approx(1.0 / 18.0)
    assert fit.event_count == 3


def test_fit_requires_positive_intervals():
    with pytest.raises(ValueError):
        fit_exponential([5.0, -1.0])
    with pytest.raises(ValueError):
        fit_exponential([5.0, 0.0])
    with pytest.raises(ValueError):
        fit_exponential([5.0])


def test_fit_recovers_rate_and_passes_ks():
    rng = np.random.default_rng(11)
    intervals = rng.exponential(18.0, 10_000)
    fit = fit_exponential(intervals)
    assert fit.mean_interval == pytest.approx(18.0, rel=0.03)
    assert fit.ks_statistic < 1.36 / math.sqrt(10_000)


def test_ks_statistic_matches_scipy_oracle():
    rng = np.random.default_rng(13)
    intervals = rng.exponential(4.0, 500)
    fit = fit_exponential(intervals)
    d, _ = stats.kstest(intervals, "expon", args=(0, fit.mean_interval))
    assert fit.ks_statistic == pytest.approx(d, abs=1e-12)


def test_mle_rate_recovery_property():
    # 100 repetitions at n = 1000: the MLE lands within 3 standard errors
    rng = np.random.default_rng(17)
    true_rate = 1.0 / 18.0
    failures = 0
    for _ in range(100):
        intervals = rng.exponential(1.0 / true_rate, 1000)
        fit = fit_exponential(intervals)
        if abs(fit.rate - true_rate) > 3.0 * true_rate / math.sqrt(1000):
            failures += 1
    assert failures <= 2  # 3-sigma misses are ~0.3% per trial


# ---------------------------------------------------------------------------
# correlate_heights
# ---------------------------------------------------------------------------

def constant_ensemble(traps):
    """The dopant traps of `traps`, each with the mean coupling, and no buffer traps."""
    n = traps.dopant_trap_count
    return TrapEnsemble(np.full(n, traps.mean_dopant_coupling), n)


def constant_coupling_run(device, seed=1):
    traps = TrapConfig(saturation_gate_shift=0.025)
    source = PhotonSource(wavelength=550.0, incident_rate=0.004,
                          quantum_efficiency=1.0)
    config = ExposureConfig(duration=33_000.0, noise_sigma=0.0, seed=seed)
    trace = simulate_exposure(device, constant_ensemble(traps), source, config)
    return trace, traps


def test_constant_coupling_heights_proportional_to_transconductance(device):
    trace, traps = constant_coupling_run(device, seed=1)
    steps = detect_steps(trace, window=4, threshold=5.0)
    assert len(steps) >= 90
    r, implied, trans = correlate_heights(steps, trace, device, window=4)
    assert r >= 1.0 - 1e-6
    valid = np.array([c for c in implied if not math.isnan(c)])
    assert valid.mean() == pytest.approx(traps.mean_dopant_coupling, rel=1e-3)


def test_variable_coupling_recovers_mean_coupling(device):
    traps = TrapConfig()  # 99 exponential couplings, mean 2.02 mV
    source = PhotonSource(wavelength=550.0, incident_rate=0.01,
                          quantum_efficiency=1.0)
    config = ExposureConfig(duration=14_000.0, noise_sigma=0.0, seed=105)
    ensemble = build_ensemble(traps, 5)
    trace = simulate_exposure(device, ensemble, source, config)
    steps = detect_steps(trace, window=8, threshold=5.0)
    r, implied, trans = correlate_heights(steps, trace, device, window=8)
    valid = np.array([c for c in implied if not math.isnan(c)])
    assert valid.size >= 90
    assert valid.mean() == pytest.approx(traps.mean_dopant_coupling, rel=0.15)


def test_correlation_requires_three_steps(device):
    trace = staircase_trace([100.0, 300.0], [0.05, 0.05])
    steps = detect_steps(trace, window=12, threshold=5.0)
    with pytest.raises(ValueError):
        correlate_heights(steps, trace, device)


def test_steps_outside_model_range_are_undefined(device):
    # a staircase far above the model ceiling cannot be inverted: correlation
    # is reported as undefined rather than invented
    trace = staircase_trace([200.0, 400.0, 600.0], [0.05, 0.05, 0.05], base=7.0)
    steps = detect_steps(trace, window=12, threshold=5.0)
    r, implied, trans = correlate_heights(steps, trace, device, window=12)
    assert math.isnan(r)
    assert all(math.isnan(c) for c in implied)


def test_plateau_steps_have_tiny_heights(device):
    # bias parked on the first plateau: captured charge barely moves G
    traps = TrapConfig(saturation_gate_shift=0.004)
    source = PhotonSource(wavelength=550.0, incident_rate=0.01,
                          quantum_efficiency=1.0)
    config = ExposureConfig(duration=11_000.0, noise_sigma=0.0, seed=31,
                            gate_bias=-1.41)
    trace = simulate_exposure(device, constant_ensemble(traps), source, config)
    assert trace.photons_captured == 99
    steps = detect_steps(trace, window=8, threshold=5.0)
    assert len(steps), "noiseless detection should still see the micro-steps"
    assert steps[:, 1].max() < 1e-3


# ---------------------------------------------------------------------------
# saturation_summary
# ---------------------------------------------------------------------------

def test_default_run_saturates(default_exposure):
    trace, _ = default_exposure
    steps = detect_steps(trace)
    saturated, rise = saturation_summary(steps, trace)
    assert saturated
    assert rise == pytest.approx(1.98, abs=0.1)


def test_short_run_not_saturated(device):
    traps = TrapConfig(saturation_gate_shift=0.2)
    source = PhotonSource(wavelength=550.0, incident_rate=0.05,
                          quantum_efficiency=1.0)
    config = ExposureConfig(duration=60.0, noise_sigma=0.0, seed=23,
                            gate_bias=-1.47)
    trace = simulate_exposure(device, constant_ensemble(traps), source, config)
    assert 2 <= trace.photons_captured <= 5
    steps = detect_steps(trace, window=8, threshold=5.0)
    saturated, rise = saturation_summary(steps, trace)
    assert not saturated


def test_dark_run_trivially_saturated(device):
    source = PhotonSource(incident_rate=0.0)
    config = ExposureConfig(duration=5000.0, noise_sigma=0.005, seed=3)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 3), source,
                              config)
    steps = detect_steps(trace, window=12, threshold=5.0)
    saturated, rise = saturation_summary(steps, trace)
    assert saturated
    assert steps.shape == (0, 3)
    assert abs(rise) < 0.01


def test_post_saturation_photons_change_nothing(noiseless_saturated_exposure,
                                                device):
    trace, ensemble = noiseless_saturated_exposure
    config = ExposureConfig(duration=900.0, noise_sigma=0.0, seed=77)
    extra = simulate_exposure(device, ensemble, PhotonSource(), config)
    assert extra.photons_captured == 0
    assert np.ptp(extra.conductance) == 0.0
    assert extra.conductance[0] == trace.conductance[-1]


# ---------------------------------------------------------------------------
# analyze_trace orchestration
# ---------------------------------------------------------------------------

def test_full_report_structure(default_exposure, device):
    trace, _ = default_exposure
    report = analyze_trace(trace, device=device)
    assert len(report.implied_couplings) == len(report.steps)
    assert len(report.transconductances) == len(report.steps)
    assert report.interval_fit is not None
    assert report.interval_fit.event_count == len(report.steps)
    assert report.saturation_detected
    assert report.correlation_status == "ok"
    # charge conservation, detector end of the chain
    assert len(report.steps) <= trace.photons_captured
    assert trace.photons_captured <= trace.photons_absorbed <= trace.photons_incident
    # detected heights never overshoot the real rise by more than noise room
    total_heights = sum(report.steps[:, 1])
    assert total_heights <= report.total_conductance_rise + 0.05
    assert total_heights >= 0.3 * report.total_conductance_rise
    text = report_to_text(report)
    for section in ("[steps]", "[intervals]", "[fit]", "[correlation]",
                    "[saturation]"):
        assert section in text


def test_report_on_dark_trace_marks_insufficient_events(device):
    source = PhotonSource(incident_rate=0.0)
    config = ExposureConfig(duration=2000.0, noise_sigma=0.005, seed=3)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 3), source,
                              config)
    report = analyze_trace(trace, device=device)
    assert report.steps.shape == (0, 3)
    assert report.interval_fit is None
    assert math.isnan(report.height_correlation)
    assert report.correlation_status == "insufficient events"
    assert report.saturation_detected  # flat signal: already at its asymptote


def test_report_holds_the_config_it_ran_with(default_exposure, device):
    trace, _ = default_exposure
    config = AnalysisConfig(window=8, threshold=5.0, bin_width=20.0)
    report = analyze_trace(trace, device, config)
    assert report.config is config
    assert report_to_text(report).startswith(
        "# qpcsim analysis report v1\n# window=8\n# threshold=5.0\n")
    assert analyze_trace(trace, device).config == AnalysisConfig()


def test_interval_statistics_is_the_fit_plus_its_histogram():
    times = np.array([0.0, 4.0, 10.0, 11.0, 30.0])
    assert interval_statistics(times[:2]) == (None, ())
    fit, (starts, counts) = interval_statistics(times)
    assert fit == fit_exponential([4.0, 6.0, 1.0, 19.0])
    _, (auto_starts, auto_counts) = interval_statistics(times, fit.mean_interval / 3.0)
    assert np.array_equal(starts, auto_starts) and np.array_equal(counts, auto_counts)
    _, (starts, counts) = interval_statistics(times, bin_width=5.0)
    assert starts.tolist() == [0.0, 5.0, 10.0, 15.0] and counts.tolist() == [2, 1, 0, 1]
    # any sequence of times will do, a list too
    assert interval_statistics(times.tolist(), 5.0)[0] == fit


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detector_rejects_non_finite_threshold(bad):
    trace = staircase_trace([300.0], [0.5], sigma=0.01)
    with pytest.raises(ValueError, match="threshold must be finite"):
        detect_steps(trace, window=12, threshold=bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_histogram_rejects_bin_width_outside_zero_to_inf(bad):
    with pytest.raises(ValueError, match="bin_width"):
        interval_statistics(np.array([0.0, 1.0]), bad)


@pytest.mark.parametrize("bad", [np.float32(math.nan), np.float32(math.inf)])
def test_config_and_functions_share_one_bound_for_numbers_that_are_not_floats(bad):
    # a numpy float32 is no Python float; the float rule reads it as one, so it must be finite
    trace = staircase_trace([300.0], [0.5], sigma=0.01)
    for check in (lambda: AnalysisConfig(threshold=bad),
                  lambda: detect_steps(trace, window=12, threshold=bad)):
        with pytest.raises(ValueError, match="^threshold must be finite, got "):
            check()
    for check in (lambda: AnalysisConfig(bin_width=bad),
                  lambda: interval_statistics(np.array([0.0, 1.0]), bad)):
        with pytest.raises(ValueError, match="^bin_width must be finite, got "):
            check()


def test_histogram_rejects_a_bin_width_needing_over_max_samples_bins(monkeypatch):
    # a 1e-9 s bin on a default run's intervals asked np.bincount for TiB of counts
    times = np.array([0.0, 1.0, 3.0])  # longest interval 2 s
    with pytest.raises(ValueError, match="^bin_width 1e-09 needs over 10000000 histogram bins"):
        interval_statistics(times, 1e-9)
    with pytest.raises(ValueError, match="bin_width"):
        interval_statistics(times, 5e-324)  # 2 / width overflows to inf
    # the cap is on floor(longest / width) + 1 bins: 4 bins pass a cap of 4, 5 do not
    monkeypatch.setattr(analyze, "MAX_SAMPLES", 4)
    assert interval_statistics(times, 0.6)[1][1].tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError, match="^bin_width 0.5 needs over 4 histogram bins"):
        interval_statistics(times, 0.5)
