"""Monte Carlo experiments: photon exposures and noisy gate sweeps.

An exposure run is event-driven: incident photons arrive as a homogeneous
Poisson process, are thinned by the quantum efficiency, and each surviving
photon captures a hole at a trap (layer permitting).  The source/drain
conductance is sampled on a uniform clock; an event landing between two
ticks appears at the next sample, i.e. the conductance response is a step
function.  The sampled signal is the transport-model conductance at
(gate bias + accumulated trap gate shift) plus white Gaussian noise.

Every run owns its RNG and its ensemble; identical seeds reproduce a run
bit-exactly.  Trace files round-trip exactly (floats are written with
shortest round-trip repr).
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .charge import (
    LAYER_NONE,
    PhotonSource,
    TrapEnsemble,
    absorption_target,
    capture_photons,
    cumulative_gate_shift,
    effective_gate_shift,
    free_traps,
)
from .transport import (
    GATE_AXIS,
    MAX_SAMPLES,
    TIME_AXIS,
    DeviceParams,
    Trace,
    conductance,
    require_finite,
    sweep,
)


@dataclass(frozen=True)
class ExposureConfig:
    duration: float = 5400.0        # s of illumination (t = 0 .. duration)
    sample_interval: float = 0.5    # s between conductance samples
    dark_lead: float = 60.0         # s of dark sampling before t = 0
    gate_bias: float = -1.5         # V, fixed gate during the exposure
    noise_sigma: float = 0.005      # conductance noise, units of 2e^2/h
    seed: int = 1

    def __post_init__(self):
        require_finite(self)
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        if self.dark_lead < 0:
            raise ValueError("dark_lead must be >= 0")
        if (self.dark_lead + self.duration) / self.sample_interval > MAX_SAMPLES:
            raise ValueError("(dark_lead + duration) / sample_interval must be "
                             f"<= {MAX_SAMPLES} samples")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


class TruthEvent(typing.NamedTuple):
    """One capture: its time and coupling; `cumulative_gate_shift` gives the run's levels."""

    time: float          # s
    coupling: float      # V


def poisson_event_times(rate: float, duration: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (0, duration]."""
    if rate < 0 or duration < 0:
        raise ValueError("rate and duration must be >= 0")
    if rate == 0 or duration == 0:
        return np.empty(0)
    times = []
    t = 0.0
    # draw gaps in blocks; tail blocks are rarely needed
    block = max(16, int(rate * duration * 1.25) + 16)
    while True:
        gaps = rng.exponential(1.0 / rate, block)
        arr = t + np.cumsum(gaps)
        inside = arr[arr <= duration]
        times.append(inside)
        if inside.size < arr.size:
            return np.concatenate(times)
        t = arr[-1]
        block = max(16, block // 4)


def _sample_times(config: ExposureConfig) -> np.ndarray:
    n = int(math.floor((config.dark_lead + config.duration)
                       / config.sample_interval + 1e-9)) + 1
    return -config.dark_lead + np.arange(n) * config.sample_interval


def simulate_exposure(device: DeviceParams, ensemble: TrapEnsemble,
                      source: PhotonSource, config: ExposureConfig) -> Trace:
    """Fixed-bias photon exposure; returns the sampled trace and event log.

    A fully saturated (or absorbing-nowhere) configuration yields a valid
    flat trace with an empty event log.
    """
    expected = source.incident_rate * config.duration
    if expected > MAX_SAMPLES:
        raise ValueError(f"incident_rate * duration must be <= {MAX_SAMPLES} expected "
                         f"photons, got {expected!r}")
    rng = np.random.default_rng(config.seed)
    layer = absorption_target(source.wavelength)

    incident = poisson_event_times(source.incident_rate, config.duration, rng)
    keep = rng.uniform(size=incident.size) < source.quantum_efficiency
    absorbed = incident[keep] if layer != LAYER_NONE else np.empty(0)

    # charge trapped in earlier runs persists: start from the current shift;
    # the first k absorbed photons fill the k traps, later ones change nothing
    initial_shift = effective_gate_shift(ensemble)
    # G is evaluated once per shift level: check that count before any capture
    free = len(free_traps(ensemble, layer)) if absorbed.size else 0
    device.require_mode_cap(1 + min(absorbed.size, free))
    captured = capture_photons(ensemble, layer, rng, absorbed.size) if absorbed.size else []
    event_times, couplings = absorbed[:len(captured)], ensemble.couplings[captured]
    levels = cumulative_gate_shift(initial_shift, couplings)
    events = list(map(TruthEvent, event_times.tolist(), couplings.tolist()))

    times = _sample_times(config)
    idx = np.searchsorted(event_times, times, side="right")

    # piecewise-constant signal: evaluate G once per distinct shift level
    g_levels = np.asarray(conductance(config.gate_bias + levels, device))
    baseline = g_levels[idx]

    samples = baseline
    if config.noise_sigma > 0:
        samples = baseline + rng.normal(0.0, config.noise_sigma, times.size)

    cfg = {"kind": "exposure", "initial_gate_shift": initial_shift,
           **asdict(config), **asdict(source), **_device_snapshot(device)}
    return Trace(TIME_AXIS, times, samples, events, cfg,
                 photons_incident=int(incident.size),
                 photons_absorbed=int(absorbed.size))


def simulate_gate_sweep(device: DeviceParams, v_start: float, v_end: float,
                        n_points: int, noise_sigma: float = 0.0,
                        seed: int = 0) -> Trace:
    """Gate sweep with additive Gaussian noise; noiseless equals the model curve."""
    curve = sweep(v_start, v_end, n_points, device)
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    g = curve.conductance
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        g = g + rng.normal(0.0, noise_sigma, g.size)
    cfg = {"kind": "sweep", "v_start": v_start, "v_end": v_end, "n_points": n_points,
           "noise_sigma": noise_sigma, "seed": seed, **_device_snapshot(device)}
    return Trace(GATE_AXIS, curve.times, g, config=cfg)


def exposure_to_gate_equivalence(trace: Trace) -> Trace:
    """Re-plot an exposure against the gate voltage its trapped charge mimics.

    Each sample is placed at gate_bias + cumulative gate shift; samples
    sharing a shift level are averaged into one point, yielding a curve
    directly comparable with a gate-only sweep.
    """
    if trace.truth_events is None:
        raise ValueError("trace carries no truth events; cannot remap")
    if trace.axis_kind != TIME_AXIS:
        raise ValueError("only time-axis exposure traces can be remapped")
    gate_bias = typed("gate_bias", trace.config.get("gate_bias", 0.0), float)
    initial_shift = typed("initial_gate_shift", trace.config.get("initial_gate_shift", 0.0),
                          float)

    event_times = np.array([e.time for e in trace.truth_events])
    idx = np.searchsorted(event_times, trace.times, side="right")

    levels = cumulative_gate_shift(initial_shift, [e.coupling for e in trace.truth_events])
    volts = gate_bias + levels
    sums = np.bincount(idx, weights=trace.conductance, minlength=levels.size)
    counts = np.bincount(idx, minlength=levels.size)
    visited = counts > 0
    g = sums[visited] / counts[visited]
    return Trace(GATE_AXIS, volts[visited], g)


def _device_snapshot(device: DeviceParams) -> dict:
    return {f"device_{f.name}": getattr(device, f.name) for f in fields(DeviceParams)}


def device_from_config(config: dict) -> DeviceParams:
    """Rebuild DeviceParams from a trace-header snapshot, each value by `typed`."""
    return DeviceParams(**{name: typed(f"device_{name}", config[f"device_{name}"], typ)
                           for name, typ in typing.get_type_hints(DeviceParams).items()})


# ---------------------------------------------------------------------------
# File format shared by traces, curves, reports and figures: a '# title'
# line, '#'-prefixed key=value header lines, then one or more CSV tables,
# each optionally preceded by a title line.  Floats use shortest round-trip
# repr, so read(write(trace)) is bit-exact.  A trace has a column-labelled
# sample table, then (for runs with an event log) an 'events' table.
# ---------------------------------------------------------------------------

_AXIS_COLUMN = {TIME_AXIS: "time_s", GATE_AXIS: "gate_voltage_V"}


def fmt(value) -> str:
    """One header value or CSV field: true/false, float repr, else str.

    numpy floats are written as the Python float they hold.  Plain floats,
    nearly every field of a trace, take the first test.
    """
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def csv_text(title: str, header: dict, *tables) -> str:
    """File text: '# title', '# key=value' per header item, then the tables.

    Each table is (title line or None, column line, columns): equal-length
    columns, written a column at a time.  A float ndarray column is written
    as `repr` of its Python floats, the bytes `fmt` gives; every other field
    goes through `fmt`.  Unequal lengths raise ValueError.
    """
    parts = [f"# {title}\n"] + [f"# {key}={fmt(value)}\n" for key, value in header.items()]
    for table_title, names, columns in tables:
        if table_title is not None:
            parts.append(f"{table_title}\n")
        parts.append(f"{names}\n")
        rows = len(columns[0]) if len(columns) else 0
        if any(len(col) != rows for col in columns):
            raise ValueError(f"table {names!r}: columns must have equal lengths")
        if not rows:
            continue
        # one list of fields and separators, "a", ",", ..., "z", "\n" per row
        width = 2 * len(columns)
        fields = [","] * (width * rows)
        fields[width - 1::width] = ["\n"] * rows
        for j, col in enumerate(columns):
            float_array = isinstance(col, np.ndarray) and col.dtype.kind == "f"
            fields[2 * j::width] = (map(repr, col.astype(float, copy=False).tolist())
                                   if float_array else map(fmt, col))
        parts.append("".join(fields))
    return "".join(parts)


def _parse_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


_ACCEPTED = {bool: bool, int: int, float: (int, float)}


def typed(key: str, value, typ):
    """`value` as a field of type `typ`: a bool only for bool, a non-bool int
    for int, an int or a float for float.  Anything else (or an int past the
    float range) raises ValueError naming `key`.
    """
    if isinstance(value, bool) == (typ is bool) and isinstance(value, _ACCEPTED[typ]):
        try:
            return typ(value)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be {typ.__name__}, got {value!r}")


def trace_to_text(trace: Trace) -> str:
    header = {"axis": trace.axis_kind}
    header.update((key, trace.config[key]) for key in sorted(trace.config))
    header.update(photons_incident=trace.photons_incident,
                  photons_absorbed=trace.photons_absorbed)
    tables = [(None, f"{_AXIS_COLUMN[trace.axis_kind]},conductance_G0",
               (trace.times, trace.conductance))]
    events = trace.truth_events
    if events is not None:
        tables.append(("events", "time_s,coupling_V",
                       ([e.time for e in events], [e.coupling for e in events])))
    return csv_text("qpcsim trace v1", header, *tables)


def _data_rows(lines: list[str], first_lineno: int) -> np.ndarray:
    """A run of data lines as an (n, 2) array: one `np.loadtxt` call (the C
    parser `float` uses), or, when that rejects the run, `float` line by line,
    which also reads `1_0` and non-ASCII digits and names the first bad line.
    """
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == 2:
            return rows
    except ValueError:
        pass
    rows = np.empty((len(lines), 2))
    for i, line in enumerate(lines):
        a, _, b = line.partition(",")
        try:
            rows[i] = float(a), float(b)
        except ValueError:
            raise ValueError(f"trace line {first_lineno + i}: {line!r} is neither a known "
                             "section title, a column line nor a data row") from None
    return rows


def trace_from_text(text: str) -> Trace:
    header: dict = {}
    no_rows = np.empty((0, 2))
    blocks = {"samples": [no_rows], "events": None}  # section -> its parsed runs of rows
    section, run, first = "samples", [], 0

    # the appended blank line ends the last run of data lines
    for lineno, raw in enumerate(text.splitlines() + [""], start=1):
        line = raw.strip()
        if line and line[0] != "#" and line not in (
                "events", "time_s,conductance_G0", "gate_voltage_V,conductance_G0",
                "time_s,coupling_V"):
            if not run:
                first = lineno
            run.append(line)
            continue
        if run:
            blocks[section].append(_data_rows(run, first))
            run = []
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                continue
            key, _, val = body.partition("=")
            header[key.strip()] = _parse_value(val.strip())
        elif line == "events":
            if blocks["events"] is not None:
                raise ValueError("trace file has more than one events section")
            section, blocks["events"] = "events", [no_rows]

    axis_kind = header.pop("axis", TIME_AXIS)
    incident, absorbed = (typed(key, header.pop(key, 0), int)
                          for key in ("photons_incident", "photons_absorbed"))
    times, values = np.concatenate(blocks["samples"]).T.copy()
    events = None
    if blocks["events"] is not None:
        # must be a number: the shift levels are rebuilt from it
        typed("initial_gate_shift", header.get("initial_gate_shift", 0.0), float)
        events = list(map(TruthEvent, *np.concatenate(blocks["events"]).T.tolist()))

    return Trace(axis_kind, times, values, events, header,
                 photons_incident=incident, photons_absorbed=absorbed)


def read_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_text(fh.read())
