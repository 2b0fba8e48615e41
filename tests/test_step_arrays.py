"""Detected steps as one (n, 3) array, checked against a step-by-step reference.

The reference functions below keep each step as a named tuple and read it a
field at a time, as the analyzer did before its steps became an array.  The
array code must give the same numbers bit for bit, and the same report
bytes, including for a step in the first `window` samples (its level
window is cut short), a step at or before the first sample (no level
before it: a NaN coupling), and no steps at all.
"""

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from qpcsim.analyze import (
    MIN_STEPS_FOR_SATURATION,
    RELATIVE_TRANSCONDUCTANCE_FLOOR,
    SATURATION_TAIL_FRACTION,
    AnalysisConfig,
    AnalysisReport,
    _invert_conductance,
    _linear_slope,
    _median,
    _model_grid,
    analyze_trace,
    correlate_heights,
    detect_steps,
    estimate_noise_sigma,
    interval_statistics,
    report_to_text,
    saturation_summary,
)
from qpcsim.charge import PhotonSource, TrapConfig, build_ensemble
from qpcsim.simulate import ExposureConfig, csv_text, simulate_exposure
from qpcsim.transport import TIME_AXIS, Trace, transconductance


class Step(NamedTuple):
    time: float
    height: float
    confidence: float


def reference_correlate_heights(steps, trace, device, window):
    x = trace.conductance
    heights = np.array([s.height for s in steps])
    g_mid = np.full(len(steps), np.nan)
    for k, step in enumerate(steps):
        i = int(np.searchsorted(trace.times, step.time))
        if i > 0:
            g_mid[k] = float(np.mean(x[max(0, i - window):i])) + 0.5 * step.height
    trans = transconductance(_invert_conductance(g_mid, device), device)
    slope_floor = RELATIVE_TRANSCONDUCTANCE_FLOOR * float(_model_grid(device)[2].max())
    implied = heights / np.where(trans > slope_floor, trans, np.nan)
    valid = ~np.isnan(implied)
    h, g = heights[valid], trans[valid]
    r = math.nan
    if valid.sum() >= 2 and np.ptp(h) > 0 and np.ptp(g) > 0:
        r = float(np.corrcoef(h, g)[0, 1])
    return r, implied.tolist(), trans.tolist()


def reference_saturation_summary(steps, trace):
    x, t = trace.conductance, trace.times
    n = x.size
    m = max(4, n // 50)
    total_rise = float(np.mean(x[-m:]) - np.mean(x[:m]))
    sigma = estimate_noise_sigma(x)
    if abs(total_rise) <= 6.0 * sigma * math.sqrt(2.0 / m) + 1e-12:
        return True, total_rise
    if len(steps) < MIN_STEPS_FOR_SATURATION:
        return False, total_rise
    tail_len = int(math.ceil(SATURATION_TAIL_FRACTION * n))
    gaps = np.diff([s.time for s in steps])
    dt = _median(np.diff(t))
    tail_len = max(tail_len, int(math.ceil(3.0 * float(np.mean(gaps)) / dt)))
    if tail_len >= n - m:
        return False, total_rise
    tail_slope, tail_se = _linear_slope(t[-tail_len:], x[-tail_len:], sigma)
    head_slope, head_se = _linear_slope(t[:n - tail_len], x[:n - tail_len], sigma)
    tail_flat = abs(tail_slope) <= 3.0 * tail_se + 1e-15
    head_rising = head_slope > 5.0 * head_se
    return bool(tail_flat and head_rising), total_rise


def reference_report(steps, trace, device, config):
    fit, histogram = interval_statistics([s.time for s in steps], config.bin_width)
    if len(steps) >= 3:
        r, implied, trans = reference_correlate_heights(steps, trace, device, config.window)
        status = "undefined" if math.isnan(r) else "ok"
    else:
        r, implied, trans = math.nan, [math.nan] * len(steps), [math.nan] * len(steps)
        status = "insufficient events"
    saturated, rise = reference_saturation_summary(steps, trace)
    return SimpleNamespace(
        steps=steps, interval_fit=fit, height_correlation=r, implied_couplings=implied,
        transconductances=trans, saturation_detected=saturated, total_conductance_rise=rise,
        correlation_status=status, window=config.window, threshold=config.threshold,
        histogram=histogram)


def reference_report_to_text(report):
    valid = [c for c in report.implied_couplings if not math.isnan(c)]
    mean_implied = float(np.mean(valid)) if valid else math.nan
    fit, steps = report.interval_fit, report.steps
    return csv_text(
        "qpcsim analysis report v1",
        {"window": report.window, "threshold": float(report.threshold)},
        ("[steps]",
         "time_s,height_G0,confidence,transconductance_G0_per_V,implied_coupling_V",
         ([s.time for s in steps], [s.height for s in steps],
          [s.confidence for s in steps], report.transconductances,
          report.implied_couplings)),
        ("[intervals]", "bin_start_s,count", report.histogram),
        ("[fit]", "event_count,mean_interval_s,rate_per_s,ks_statistic",
         () if fit is None else [[v] for v in fit]),
        ("[correlation]", "pearson_r,n_used,mean_implied_coupling_V,status",
         [[v] for v in (report.height_correlation, len(valid), mean_implied,
                        report.correlation_status)]),
        ("[saturation]", "saturation_detected,step_count,total_rise_G0",
         [[v] for v in (report.saturation_detected, len(steps),
                        report.total_conductance_rise)]),
    )


def as_tuples(steps):
    return list(map(Step, *steps.T.tolist()))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def edge_steps(trace, detected, window):
    """The detected steps after three made-up ones: before the first sample, at
    it, and inside the first `window` samples."""
    t0, dt = trace.times[0], trace.times[1] - trace.times[0]
    early = [[t0 - dt, 0.02, 7.0], [t0, 0.03, 8.0], [t0 + (window // 2) * dt, 0.04, 9.0]]
    return np.concatenate([early, detected])


@pytest.mark.parametrize("window", [4, 12])
def test_array_steps_match_the_reference(default_exposure, device, window):
    trace, _ = default_exposure
    config = AnalysisConfig(window=window)
    steps = edge_steps(trace, detect_steps(trace, window=window), window)
    assert len(steps) >= MIN_STEPS_FOR_SATURATION  # reaches the tail-slope test
    reference = as_tuples(steps)

    r, implied, trans = correlate_heights(steps, trace, device, window)
    ref_r, ref_implied, ref_trans = reference_correlate_heights(reference, trace, device, window)
    assert bits(r) == bits(ref_r)
    assert bits(implied) == bits(ref_implied) and bits(trans) == bits(ref_trans)
    assert implied.dtype == trans.dtype == np.float64
    assert np.isnan(implied[:2]).all() and not np.isnan(implied[2])
    assert saturation_summary(steps, trace) == reference_saturation_summary(reference, trace)

    fit, histogram = interval_statistics(steps[:, 0], config.bin_width)
    report = AnalysisReport(steps, fit, r, implied, trans, *saturation_summary(steps, trace),
                            config, histogram)
    assert report_to_text(report) == \
        reference_report_to_text(reference_report(reference, trace, device, config))


def test_saturation_tail_follows_the_step_gaps():
    # a run that rises for 850 s and is flat for its last 150 s: a tail of 10%
    # of the samples is flat, a tail of three mean step gaps (255 s) is not
    times = np.arange(2000) * 0.5
    noise = np.random.default_rng(7).normal(0.0, 0.005, times.size)
    trace = Trace(TIME_AXIS, times, np.minimum(times, 850.0) * 1e-3 + noise)
    steps = np.column_stack([np.arange(11) * 85.0, np.full(11, 0.085), np.full(11, 9.0)])
    dense = steps * [0.1, 1.0, 1.0]  # 8.5 s gaps: the 10% tail decides
    for rows, saturated in ((steps, False), (dense, True)):
        result = saturation_summary(rows, trace)
        assert result == reference_saturation_summary(as_tuples(rows), trace)
        assert result[0] is saturated


def test_analyze_trace_writes_the_reference_report(default_exposure, device):
    trace, _ = default_exposure
    config = AnalysisConfig()
    report = analyze_trace(trace, device, config)
    assert report.steps.shape == (len(report.steps), 3) and len(report.steps) >= 3
    reference = reference_report(as_tuples(report.steps), trace, device, config)
    assert report_to_text(report) == reference_report_to_text(reference)


def test_no_steps_write_the_reference_report(device):
    source = PhotonSource(incident_rate=0.0)
    config = ExposureConfig(duration=2000.0, noise_sigma=0.005, seed=3)
    trace = simulate_exposure(device, build_ensemble(TrapConfig(), 3), source, config)
    report = analyze_trace(trace, device)
    assert report.steps.shape == (0, 3)
    assert report.implied_couplings.shape == report.transconductances.shape == (0,)
    reference = reference_report([], trace, device, AnalysisConfig())
    assert report_to_text(report) == reference_report_to_text(reference)
