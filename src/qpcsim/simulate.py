"""Monte Carlo experiments: photon exposures and noisy gate sweeps.

An exposure run is event-driven: incident photons arrive as a homogeneous
Poisson process, are thinned by the quantum efficiency, and each surviving
photon captures a hole at a trap (layer permitting).  The source/drain
conductance is sampled on a uniform clock; an event landing between two
ticks appears at the next sample, i.e. the conductance response is a step
function.  The sampled signal is the transport-model conductance at
(gate bias + accumulated trap gate shift) plus white Gaussian noise.

Every run owns its RNG and its ensemble; identical seeds reproduce a run
bit-exactly.  Its capture log is one (k, 2) float array of (time, coupling)
rows, `Trace.events`.  Trace files round-trip exactly (floats are written
with shortest round-trip repr).  A table of at least _FLOAT_ROWS rows of
float columns, such as a trace's samples, gets the same bytes from
`_shortest`, which computes the digits of a whole column at once.  A trace
is read a block of lines at a time, cut at its section edges too, so that
each block of data rows is one `np.loadtxt` call.
"""

from __future__ import annotations

import math
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
)
from .transport import (
    GATE_AXIS,
    MAX_SAMPLES,
    TIME_AXIS,
    DeviceParams,
    NonNegative,
    Positive,
    Trace,
    check_fields,
    conductance,
    field_rules,
    typed,
)


@dataclass(frozen=True)
class ExposureConfig:
    duration: Positive = 5400.0         # s of illumination (t = 0 .. duration)
    sample_interval: Positive = 0.5     # s between conductance samples
    dark_lead: NonNegative = 60.0       # s of dark sampling before t = 0
    gate_bias: float = -1.5             # V, fixed gate during the exposure
    noise_sigma: NonNegative = 0.005    # conductance noise, units of 2e^2/h
    seed: int = 1

    def __post_init__(self):
        check_fields(self)
        if _sample_steps(self) >= MAX_SAMPLES:  # `_sample_times` makes floor(steps) + 1
            raise ValueError("floor((dark_lead + duration) / sample_interval) + 1 samples "
                             f"must be <= {MAX_SAMPLES}")


def poisson_event_times(rate: float, duration: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (0, duration].

    Over `MAX_SAMPLES` expected events (`rate * duration`) is a ValueError,
    before any draw."""
    for name, value in (("rate", rate), ("duration", duration),
                        ("rate * duration", rate * duration)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if rate < 0 or duration < 0:
        raise ValueError("rate and duration must be >= 0")
    if rate * duration > MAX_SAMPLES:
        raise ValueError(f"rate * duration must be <= {MAX_SAMPLES} expected events, "
                         f"got {rate * duration!r}")
    if rate == 0 or duration == 0:
        return np.empty(0)
    times = []
    t = 0.0
    # draw gaps in blocks; tail blocks are rarely needed
    block = max(16, int(rate * duration * 1.25) + 16)
    while True:
        arr = rng.exponential(1.0 / rate, block)
        np.cumsum(arr, out=arr)
        arr += t
        inside = np.searchsorted(arr, duration, side="right")  # arr is sorted
        times.append(arr[:inside])
        if inside < arr.size:
            return np.concatenate(times)
        t = arr[-1]
        block = max(16, block // 4)


def _sample_steps(config: ExposureConfig) -> float:
    """Sample intervals from -dark_lead to duration, with 1e-9 of slack for rounding."""
    return (config.dark_lead + config.duration) / config.sample_interval + 1e-9


def _sample_times(config: ExposureConfig) -> np.ndarray:
    n = math.floor(_sample_steps(config)) + 1
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
    captured = capture_photons(ensemble, layer, rng, absorbed.size) if absorbed.size else []
    event_times, couplings = absorbed[:len(captured)], ensemble.couplings[captured]
    levels = cumulative_gate_shift(initial_shift, couplings)

    times = _sample_times(config)
    idx = np.searchsorted(event_times, times, side="right")

    # piecewise-constant signal: evaluate G once per shift level that a sample reads
    needed = np.zeros(levels.size, dtype=bool)
    needed[idx] = True
    g_levels = np.zeros(levels.size)
    g_levels[needed] = conductance(config.gate_bias + levels[needed], device)
    baseline = g_levels[idx]

    samples = baseline
    if config.noise_sigma > 0:
        samples = baseline + rng.normal(0.0, config.noise_sigma, times.size)

    cfg = {"kind": "exposure", "initial_gate_shift": initial_shift,
           **asdict(config), **asdict(source), **_device_snapshot(device)}
    return Trace(TIME_AXIS, times, samples, np.column_stack([event_times, couplings]), cfg,
                 photons_incident=int(incident.size),
                 photons_absorbed=int(absorbed.size))


def _linspace(start: float, stop: float, n: int) -> np.ndarray:
    """`np.linspace(start, stop, n)` bit for bit, for n >= 2, as an array that owns
    its data: linspace returns a view, which `Trace` would copy."""
    y, delta = np.arange(n, dtype=float), float(stop) - float(start)
    if delta / (n - 1) == 0.0:  # a step that underflows: linspace divides first
        y /= n - 1
        y *= delta
    else:
        y *= delta / (n - 1)
    y += start
    y[-1] = stop
    return y


def simulate_gate_sweep(device: DeviceParams, v_start: float, v_end: float,
                        n_points: int, noise_sigma: float = 0.0,
                        seed: int = 0) -> Trace:
    """Conductance on a uniform gate-voltage grid plus Gaussian noise of `noise_sigma`.

    Noiseless, it is the model curve.  Every argument is checked before
    anything is evaluated.
    """
    for name, value in (("v_start", v_start), ("v_end", v_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not v_start < v_end:
        raise ValueError("v_start must be < v_end")
    if not 2 <= typed("n_points", n_points, int) <= MAX_SAMPLES:
        raise ValueError(f"n_points must be in [2, {MAX_SAMPLES}], got {n_points}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    v = _linspace(v_start, v_end, n_points)
    g = conductance(v, device)
    if noise_sigma > 0:
        g = g + np.random.default_rng(seed).normal(0.0, noise_sigma, g.size)
    cfg = {"kind": "sweep", "v_start": v_start, "v_end": v_end, "n_points": n_points,
           "noise_sigma": noise_sigma, "seed": seed, **_device_snapshot(device)}
    return Trace(GATE_AXIS, v, g, config=cfg)


def exposure_to_gate_equivalence(trace: Trace) -> Trace:
    """Re-plot an exposure against the gate voltage its trapped charge mimics.

    Each sample is placed at gate_bias + cumulative gate shift; samples
    sharing a shift level are averaged into one point, yielding a curve
    directly comparable with a gate-only sweep.
    """
    if trace.events is None:
        raise ValueError("trace carries no truth events; cannot remap")
    if trace.axis_kind != TIME_AXIS:
        raise ValueError("only time-axis exposure traces can be remapped")
    if "gate_bias" not in trace.config:
        raise ValueError("trace header lacks gate_bias")
    gate_bias = typed("gate_bias", trace.config["gate_bias"], float)
    initial_shift = typed("initial_gate_shift", trace.config.get("initial_gate_shift", 0.0),
                          float)

    event_times, couplings = trace.events.T
    idx = np.searchsorted(event_times, trace.times, side="right")
    volts = gate_bias + cumulative_gate_shift(initial_shift, couplings)
    sums = np.bincount(idx, weights=trace.conductance, minlength=volts.size)
    counts = np.bincount(idx, minlength=volts.size)
    visited = counts > 0
    g = sums[visited] / counts[visited]
    return Trace(GATE_AXIS, volts[visited], g)


def _device_snapshot(device: DeviceParams) -> dict:
    return {f"device_{f.name}": getattr(device, f.name) for f in fields(DeviceParams)}


def device_from_config(config: dict) -> DeviceParams:
    """Rebuild DeviceParams from a trace-header snapshot, each value by `typed`."""
    return DeviceParams(**{name: typed(f"device_{name}", config[f"device_{name}"], typ)
                           for name, typ, *_ in field_rules(DeviceParams)})


# ---------------------------------------------------------------------------
# File format shared by traces, curves, reports and figures: a '# title'
# line, '#'-prefixed key=value header lines, then one or more CSV tables,
# each optionally preceded by a title line.  Floats use shortest round-trip
# repr, so read(write(trace)) is bit-exact.  A trace has a column-labelled
# sample table, then (for runs with an event log) an 'events' table.
# ---------------------------------------------------------------------------

_SAMPLE_COLUMNS = {TIME_AXIS: "time_s,conductance_G0", GATE_AXIS: "gate_voltage_V,conductance_G0"}
_EVENTS_TABLE = ("events", "time_s,coupling_V")
_WRITE_ROWS = 2048   # rows per writer block: a row's fields hold ~240 B until joined
_FLOAT_ROWS = 1000   # an all-float table this long is written by `_shortest`
_READ_CHARS = 16384  # characters per reader block: a line holds ~80 B as a str


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
    columns, written _WRITE_ROWS rows at a time, each field by `fmt` (an ndarray
    column through its Python values).  A table of at least _FLOAT_ROWS rows
    whose columns are all float ndarrays is written by `_shortest.rows_text`
    instead, with the same bytes.  Unequal lengths raise ValueError first.
    """
    parts = [f"# {title}\n"] + [f"# {key}={fmt(value)}\n" for key, value in header.items()]
    for table_title, names, columns in tables:
        if table_title is not None:
            parts.append(f"{table_title}\n")
        parts.append(f"{names}\n")
        rows = len(columns[0]) if len(columns) else 0
        if any(len(col) != rows for col in columns):
            raise ValueError(f"table {names!r}: columns must have equal lengths")
        floats = all(isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns)
        if floats and rows >= _FLOAT_ROWS:
            # imported here, so a command that writes no long table never compiles it
            from . import _shortest
            parts.extend(_shortest.rows_text(columns))
            continue
        width = 2 * len(columns)
        for start in range(0, rows, _WRITE_ROWS):
            # one list of fields and separators, "a", ",", ..., "z", "\n" per row
            n = min(_WRITE_ROWS, rows - start)
            fields = ([","] * (width - 1) + ["\n"]) * n
            for j, col in enumerate(c[start:start + n] for c in columns):
                fields[2 * j::width] = map(fmt, col.tolist() if isinstance(col, np.ndarray)
                                           else col)
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


def trace_to_text(trace: Trace) -> str:
    header = {"axis": trace.axis_kind}
    header.update((key, trace.config[key]) for key in sorted(trace.config))
    header.update(photons_incident=trace.photons_incident,
                  photons_absorbed=trace.photons_absorbed)
    tables = [(None, _SAMPLE_COLUMNS[trace.axis_kind], (trace.times, trace.conductance))]
    if trace.events is not None:
        tables.append((*_EVENTS_TABLE, trace.events.T))
    return csv_text("qpcsim trace v1", header, *tables)


def _line_end(text: str, key: str, start: int = 0) -> int:
    """The index past the newline that ends the line of the first `key` from `start`, or 0."""
    at = text.find(key, start)
    return 0 if at < 0 else text.find("\n", at) + 1


def _text_blocks(text: str):
    """`text.splitlines()` as a list per block of _READ_CHARS characters cut after a newline,
    also cut after the first sample column line, before the events title and after the
    events column line: then every block of a trace but the header and the title holds
    data rows alone.  Any cut after a newline keeps the lines, so the edges need only be
    right for well-formed text."""
    events_title, events_columns = _EVENTS_TABLE
    title = text.find("\n" + events_title) + 1
    edges = (_line_end(text, "conductance_G0"),  # how both sample column lines end
             title, title and _line_end(text, events_columns, title))
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_CHARS) + 1 or len(text)
        end = min([end] + [edge for edge in edges if edge > start])
        yield text[start:end].splitlines()
        start = end


def trace_from_text(text: str) -> Trace:
    """The trace `trace_to_text` wrote, read a block of lines at a time: a block of data
    rows and blank lines is one `np.loadtxt` call (the C parser `float` uses), any other
    (the header, the events title) is read line by line, each data row by `float`, which
    also reads `1_0` and non-ASCII digits and names the first bad line."""
    header: dict = {}
    no_rows = np.empty((0, 2))
    parts = {"samples": [no_rows], "events": None}  # section -> its (n, 2) arrays of rows
    events_title, events_columns = _EVENTS_TABLE
    columns = {*_SAMPLE_COLUMNS.values(), events_columns}
    section, lineno = "samples", 0

    for lines in _text_blocks(text):
        try:  # blank lines alone hold no rows, and loadtxt would warn on them
            rows = (np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                    if any(lines) else no_rows)
            if rows.shape[1] == 2:
                parts[section].append(rows)
                lineno += len(lines)
                continue
        except ValueError:
            pass
        pairs = []
        for lineno, raw in enumerate(lines, start=lineno + 1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    header[key.strip()] = _parse_value(val.strip())
            elif line == events_title:
                if parts["events"] is not None:
                    raise ValueError("trace file has more than one events section")
                parts[section].append(np.reshape(pairs, (-1, 2)))
                section, parts["events"], pairs = "events", [], []
            elif line and line not in columns:
                a, _, b = line.partition(",")
                try:
                    pairs.append((float(a), float(b)))
                except ValueError:
                    raise ValueError(f"trace line {lineno}: {line!r} is neither a known "
                                     "section title, a column line nor a data row") from None
        parts[section].append(np.reshape(pairs, (-1, 2)))

    axis_kind = header.pop("axis", TIME_AXIS)
    incident, absorbed = (typed(key, header.pop(key, 0), int)
                          for key in ("photons_incident", "photons_absorbed"))
    times, values = (np.concatenate([rows[:, j] for rows in parts["samples"]]) for j in (0, 1))
    events = None
    if parts["events"] is not None:
        # must be a number: the shift levels are rebuilt from it
        typed("initial_gate_shift", header.get("initial_gate_shift", 0.0), float)
        events = np.concatenate(parts["events"])  # Trace checks the event times

    return Trace(axis_kind, times, values, events, header,
                 photons_incident=incident, photons_absorbed=absorbed)


def read_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_text(fh.read())
