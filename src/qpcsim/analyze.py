"""Recover photon-counting observables from a sampled conductance trace.

Step detection uses a two-sided moving-window mean difference: at each
sample boundary the statistic is mean(next `window` samples) minus
mean(previous `window` samples).  A step is declared at a local maximum of
the statistic that exceeds `threshold` standard errors of the statistic
under pure noise (sigma * sqrt(2/window), with sigma estimated robustly
from first differences).  Only upward steps are accepted, which separates
photon events from a random telegraph signal that moves both ways.  After
a detection the next `window` samples are refractory; if two candidates
fall inside one window the larger statistic wins, the earlier one on a tie.

Interval statistics: the exponential maximum-likelihood rate of the
inter-event intervals is n / sum(intervals), and the Kolmogorov-Smirnov
statistic against that fitted exponential measures how Poissonian the
event stream is.

Height correlation: each detected height is paired with the transport
model's dG/dV_g at the step's operating point (found by inverting the
model conductance at the mid-step level); height / transconductance then
estimates the per-trap gate-shift coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .simulate import csv_text, device_from_config
from .transport import (MAX_SAMPLES, TIME_AXIS, DeviceParams, NonNegative, Positive, Trace,
                        Window, check_fields, conductance, transconductance)

DEFAULT_WINDOW = 12
DEFAULT_THRESHOLD = 4.0
MODEL_GRID_POINTS = 4001  # gate voltages of the grid that G is inverted on

# a step whose operating point has less than this fraction of the device's
# peak transconductance sits on a plateau: height/slope is meaningless there
# and the implied coupling is reported as undefined
RELATIVE_TRANSCONDUCTANCE_FLOOR = 1e-3

# fewer detected steps than this cannot certify saturation of an active run
MIN_STEPS_FOR_SATURATION = 10

# the least share of the samples that `saturation_summary` tests for flatness
SATURATION_TAIL_FRACTION = 0.1

_MAD_TO_SIGMA = 0.6744897501960817  # Phi^-1(0.75): MAD -> sigma for a Gaussian


@dataclass(frozen=True)
class AnalysisConfig:
    """What counts as a step, and how its intervals are binned: the bounds that
    `detect_steps` and `interval_statistics` check their arguments by, too."""

    window: Window = DEFAULT_WINDOW           # detector window, samples
    threshold: Positive = DEFAULT_THRESHOLD   # detection threshold, noise SEs
    bin_width: NonNegative = 0.0              # histogram bin, s; 0 = fitted mean interval / 3

    def __post_init__(self):
        check_fields(self)


class IntervalFit(NamedTuple):
    event_count: int        # number of events behind the fit (intervals + 1)
    mean_interval: float    # s
    rate: float             # 1/s, = 1/mean_interval
    ks_statistic: float     # sup |empirical CDF - fitted exponential CDF|


@dataclass
class AnalysisReport:
    """What `analyze_trace` found; the per-step arrays are aligned with `steps`."""

    steps: np.ndarray                    # (n, 3): time s, height G0, confidence
    interval_fit: IntervalFit | None
    height_correlation: float            # Pearson r, nan when undefined
    implied_couplings: np.ndarray        # V per step, nan where g ~ 0
    transconductances: np.ndarray        # model dG/dVg per step
    saturation_detected: bool
    total_conductance_rise: float
    config: AnalysisConfig = AnalysisConfig()        # the settings it ran with
    histogram: tuple = field(default_factory=tuple)  # (bin starts, counts)

    @property
    def correlation_status(self) -> str:
        """"insufficient events" below 3 steps, "undefined" when r is NaN, else "ok"."""
        if len(self.steps) < 3:
            return "insufficient events"
        return "undefined" if math.isnan(self.height_correlation) else "ok"


def _median(x: np.ndarray) -> float:
    """`np.median` of a non-empty finite array, bit for bit, without its ~15 ms
    `numpy.ma` import: + 0.0 clears -0.0 as numpy's mean does."""
    lo, hi = (x.size - 1) // 2, x.size // 2
    part = np.partition(x, [lo, hi])
    return float((part[lo] + part[hi] + 0.0) / 2 if lo != hi else part[lo] + 0.0)


def estimate_noise_sigma(samples: np.ndarray) -> float:
    """Robust per-sample noise from the MAD of first differences.

    Insensitive to sparse steps; exactly zero for a noiseless staircase.
    """
    d = np.diff(np.asarray(samples, dtype=float))
    if d.size == 0:
        return 0.0
    mad = _median(np.abs(d - _median(d)))
    return float(mad / _MAD_TO_SIGMA / math.sqrt(2.0))


def _mean_difference(samples: np.ndarray, window: int) -> np.ndarray:
    """Statistic d[j] = mean(x[i:i+w]) - mean(x[i-w:i]) at boundaries i = w + j = w..n-w,
    from slices of the cumulative sum, in the order (c[i+w] - 2 c[i]) + c[i-w]."""
    n, w = samples.size, window
    c = np.concatenate([[0.0], np.cumsum(samples)])
    d = c[2 * w:] - 2.0 * c[w:n - w + 1]
    d += c[:n - 2 * w + 1]
    d /= w
    return d


def detect_steps(trace: Trace, window: int = DEFAULT_WINDOW,
                 threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Upward conductance steps in a time trace: an (n, 3) float array of
    (time s, height G0 > 0, confidence in noise SEs) rows in time order."""
    if trace.axis_kind != TIME_AXIS:
        raise ValueError("step detection requires a time-axis exposure trace")
    AnalysisConfig(window, threshold)  # the bounds, checked where they are written
    x = trace.conductance
    if x.size < 2 * window:
        raise ValueError("trace must contain at least 2*window samples")

    d = _mean_difference(x, window)
    sigma = estimate_noise_sigma(x)
    se = sigma * math.sqrt(2.0 / window)
    floor = max(threshold * se, 1e-12)

    # local maxima of the statistic above the detection floor; ties keep
    # the earlier sample
    mid = d[1:-1]
    cand = np.flatnonzero((mid > d[:-2]) & (mid >= d[2:]) & (mid > floor)) + 1

    accepted: list[int] = []
    for c in cand:
        if accepted and c - accepted[-1] < window:
            if d[c] > d[accepted[-1]]:
                accepted[-1] = int(c)
        else:
            accepted.append(int(c))

    heights = d[accepted]
    conf = heights / se if se > 0 else np.full(heights.size, math.inf)
    return np.column_stack([trace.times[window:][accepted], heights, conf])


def interval_statistics(times, bin_width: float = 0.0):
    """Exponential fit and histogram of the intervals between successive event times.

    `times` is an array of event times in order (the first column of detected
    steps or of a capture log).  A `bin_width` of 0 bins by a third of the
    fitted mean interval; one outside [0, inf) is a ValueError, at any event
    count, and so is one that needs more than `MAX_SAMPLES` bins.  Returns
    (fit, (bin starts, counts summing to len(times) - 1)), or (None, ())
    below three events.
    """
    AnalysisConfig(bin_width=bin_width)  # the bound, checked where it is written
    if len(times) < 3:
        return None, ()
    intervals = np.diff(times)
    fit = fit_exponential(intervals)
    bin_width = bin_width or fit.mean_interval / 3.0
    longest = float(intervals.max())
    if longest / bin_width >= MAX_SAMPLES:  # bins = floor(longest / bin_width) + 1
        raise ValueError(f"bin_width {bin_width!r} needs over {MAX_SAMPLES} histogram bins "
                         f"for a longest interval of {longest!r} s")
    counts = np.bincount(np.floor(intervals / bin_width).astype(int))
    return fit, (np.arange(counts.size) * bin_width, counts)


def fit_exponential(intervals) -> IntervalFit:
    """Exponential MLE of inter-event intervals plus a KS goodness-of-fit.

    The MLE rate is n / sum(intervals); the KS statistic is the sup
    distance between the empirical CDF and the fitted exponential CDF.
    """
    x = np.sort(np.asarray(intervals, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 intervals")
    if np.any(x <= 0):
        raise ValueError("intervals must all be > 0")
    mean = float(x.mean())
    rate = 1.0 / mean
    cdf = 1.0 - np.exp(-rate * x)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    ks = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    return IntervalFit(event_count=n + 1, mean_interval=mean, rate=rate,
                       ks_statistic=ks)


@lru_cache(maxsize=8)
def _model_grid(device: DeviceParams):
    """Model (v, G, dG/dV) on a uniform gate grid, 1 V below threshold to past the last riser.

    Cached and shared between callers, so the arrays are read-only.
    """
    v = np.linspace(device.threshold_voltage - 1.0, device.threshold_voltage + (
        device.num_modes * device.mode_spacing + 4.0) / device.lever_arm, MODEL_GRID_POINTS)
    grid = v, conductance(v, device), transconductance(v, device)
    for a in grid:
        a.flags.writeable = False
    return grid


def _invert_conductance(g_target, device: DeviceParams):
    """Gate voltages at which the model conductance equals g_target (nan outside its range).

    From linear interpolation on the model grid, Newton steps with the model
    slope, each kept inside a bracket of the root that starts as its grid
    cell (a step leaving it bisects it instead), until a step is below
    1e-13 V: two steps on the default device.  Targets do not interact.
    """
    v, g, _ = _model_grid(device)
    target = np.atleast_1d(np.asarray(g_target, dtype=float))
    x = np.full(target.shape, math.nan)
    a = np.flatnonzero((g[0] < target) & (target < g[-1]))
    k = np.searchsorted(g, target[a])
    lo, hi = v[k - 1], v[k]
    x[a] = np.interp(target[a], g, v)
    for _ in range(64):
        if a.size == 0:
            break
        xa, slope = x[a], transconductance(x[a], device)
        residual = conductance(xa, device) - target[a]
        lo, hi = np.where(residual < 0.0, xa, lo), np.where(residual > 0.0, xa, hi)
        newton = xa - residual / np.where(slope > 0.0, slope, math.nan)
        newton = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        moving = np.abs(newton - xa) >= 1e-13
        x[a] = newton
        a, lo, hi = a[moving], lo[moving], hi[moving]
    return x if np.ndim(g_target) else float(x[0])


def correlate_heights(steps: np.ndarray, trace: Trace,
                      device: DeviceParams, window: int = DEFAULT_WINDOW):
    """Pair detected step heights with the model transconductance.

    For each step the operating point is recovered by inverting the model
    conductance at the mid-step level; the implied per-trap coupling is
    height / dG/dVg there.  Steps on plateaus (transconductance ~ 0) get an
    undefined (nan) coupling and are excluded from the Pearson correlation.

    Returns (pearson_r, implied couplings, transconductances); the latter
    two are float arrays aligned with the rows of `steps`.
    """
    if len(steps) < 3:
        raise ValueError("need at least 3 steps to correlate heights")
    x, heights = trace.conductance, steps[:, 1]
    ends = np.searchsorted(trace.times, steps[:, 0]).tolist()
    g_mid = np.array([np.mean(x[max(0, i - window):i]) if i else math.nan
                      for i in ends]) + 0.5 * heights
    trans = transconductance(_invert_conductance(g_mid, device), device)
    slope_floor = RELATIVE_TRANSCONDUCTANCE_FLOOR * float(_model_grid(device)[2].max())
    implied = heights / np.where(trans > slope_floor, trans, np.nan)

    valid = ~np.isnan(implied)
    h, g = heights[valid], trans[valid]
    r = math.nan
    if valid.sum() >= 2 and np.ptp(h) > 0 and np.ptp(g) > 0:
        r = float(np.corrcoef(h, g)[0, 1])
    return r, implied, trans


def _linear_slope(t: np.ndarray, x: np.ndarray, sigma: float):
    """Least-squares slope and its standard error given per-sample noise."""
    t0 = t - t.mean()
    denom = float(np.dot(t0, t0))
    if denom == 0:
        return 0.0, math.inf
    slope = float(np.dot(t0, x - x.mean()) / denom)
    se = sigma / math.sqrt(denom) if sigma > 0 else 0.0
    return slope, se


def saturation_summary(steps: np.ndarray, trace: Trace):
    """Decide whether the photoresponse has saturated.

    The trailing portion of the run must be statistically flat while the
    earlier portion rises; a trace that never rose at all (a dark run) is
    trivially saturated.  The tail is the trailing `SATURATION_TAIL_FRACTION`
    of the samples, widened to at least three detected inter-event gaps so
    a quiet stretch of an active run is not mistaken for saturation, and a
    run with only a handful of events carries too little evidence to
    certify anything.

    Returns (saturation_detected, total_conductance_rise).
    """
    x = trace.conductance
    t = trace.times
    n = x.size
    m = max(4, n // 50)
    total_rise = float(np.mean(x[-m:]) - np.mean(x[:m]))
    sigma = estimate_noise_sigma(x)

    # flat-at-all-times trace: already at its asymptote
    rise_floor = 6.0 * sigma * math.sqrt(2.0 / m) + 1e-12
    if abs(total_rise) <= rise_floor:
        return True, total_rise

    if len(steps) < MIN_STEPS_FOR_SATURATION:
        return False, total_rise

    tail_len = int(math.ceil(SATURATION_TAIL_FRACTION * n))
    gaps = np.diff(steps[:, 0])
    dt = _median(np.diff(t))
    tail_len = max(tail_len, int(math.ceil(3.0 * float(np.mean(gaps)) / dt)))
    if tail_len >= n - m:
        return False, total_rise  # too short a run to certify

    tail_slope, tail_se = _linear_slope(t[-tail_len:], x[-tail_len:], sigma)
    head_slope, head_se = _linear_slope(t[:n - tail_len], x[:n - tail_len], sigma)
    tail_flat = abs(tail_slope) <= 3.0 * tail_se + 1e-15
    head_rising = head_slope > 5.0 * head_se
    return bool(tail_flat and head_rising), total_rise


def analyze_trace(trace: Trace, device: DeviceParams | None = None,
                  config: AnalysisConfig = AnalysisConfig()) -> AnalysisReport:
    """Full analysis pipeline: detection, interval fit, correlation, saturation."""
    if device is None:
        try:
            device = device_from_config(trace.config)
        except KeyError as exc:
            raise ValueError(f"trace header lacks {exc.args[0]}") from None
    steps = detect_steps(trace, window=config.window, threshold=config.threshold)

    fit, histogram = interval_statistics(steps[:, 0], config.bin_width)
    if len(steps) >= 3:
        r, implied, trans = correlate_heights(steps, trace, device, window=config.window)
    else:
        r, implied, trans = math.nan, np.full(len(steps), math.nan), np.full(len(steps), math.nan)

    saturated, rise = saturation_summary(steps, trace)
    return AnalysisReport(
        steps=steps, interval_fit=fit, height_correlation=r,
        implied_couplings=implied, transconductances=trans,
        saturation_detected=saturated, total_conductance_rise=rise, config=config,
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# Report file: '#' header, then [steps] [intervals] [fit] [correlation]
# [saturation] sections with fixed column order.
# ---------------------------------------------------------------------------

def report_to_text(report: AnalysisReport) -> str:
    valid = report.implied_couplings[~np.isnan(report.implied_couplings)]
    mean_implied = float(np.mean(valid)) if valid.size else math.nan
    fit, steps = report.interval_fit, report.steps
    return csv_text(
        "qpcsim analysis report v1",
        {"window": report.config.window, "threshold": float(report.config.threshold)},
        ("[steps]",
         "time_s,height_G0,confidence,transconductance_G0_per_V,implied_coupling_V",
         (*steps.T, report.transconductances, report.implied_couplings)),
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
