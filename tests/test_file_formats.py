"""Exact bytes of the trace and report files, on hand-built inputs.

The inputs are written out here rather than simulated, so these texts pin
the file layout and the float formatting independently of the numerics:
a change to transport or analysis cannot move them, a change to a writer
cannot pass them unnoticed.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcsim import simulate
from qpcsim.analyze import AnalysisConfig, AnalysisReport, IntervalFit, report_to_text
from qpcsim.charge import PhotonSource, TrapConfig, build_ensemble
from qpcsim.cli import RunConfig, main, parse_config, serialize_config
from qpcsim.simulate import (
    ExposureConfig,
    Trace,
    _parse_value,
    csv_text,
    fmt,
    simulate_exposure,
    simulate_gate_sweep,
    trace_from_text,
    trace_to_text,
    typed,
)
from qpcsim.transport import GATE_AXIS, MAX_MODES, MAX_SAMPLES, TIME_AXIS, DeviceParams

EXPOSURE_CONFIG = {
    "kind": "exposure", "seed": 17516981595989274400, "gate_bias": -1.5,
    "noise_sigma": 0.1 + 0.2, "barrier_includes_buffer": False,
    "device_anomaly_enabled": True, "device_num_modes": 5,
    "initial_gate_shift": 0.0,
}

EXPOSURE_TEXT = """\
# qpcsim trace v1
# axis=exposure-time
# barrier_includes_buffer=false
# device_anomaly_enabled=true
# device_num_modes=5
# gate_bias=-1.5
# initial_gate_shift=0.0
# kind=exposure
# noise_sigma=0.30000000000000004
# seed=17516981595989274400
# photons_incident=7
# photons_absorbed=3
time_s,conductance_G0
-1.0,5e-324
-0.0,1.0
0.5,2.0000000000000004
1e+16,-1e-300
events
time_s,coupling_V
0.25,0.002
0.5,1e-05
"""

SWEEP_TEXT = """\
# qpcsim trace v1
# axis=gate-voltage
# kind=sweep
# n_points=2
# v_start=-1.5
# photons_incident=0
# photons_absorbed=0
gate_voltage_V,conductance_G0
-1.5,0.0
-1.25,0.5
"""

FULL_REPORT_TEXT = """\
# qpcsim analysis report v1
# window=8
# threshold=4.0
[steps]
time_s,height_G0,confidence,transconductance_G0_per_V,implied_coupling_V
10.5,0.01,5.25,1e-05,nan
42.0,0.125,12.0,62.5,0.002
100.0,0.0625,4.5,41.666666666666664,0.0015
[intervals]
bin_start_s,count
0.0,1
14.916666666666666,0
29.833333333333332,1
[fit]
event_count,mean_interval_s,rate_per_s,ks_statistic
3,44.75,0.0223463687150838,0.3
[correlation]
pearson_r,n_used,mean_implied_coupling_V,status
nan,2,0.00175,undefined
[saturation]
saturation_detected,step_count,total_rise_G0
false,3,0.1975
"""

EMPTY_REPORT_TEXT = """\
# qpcsim analysis report v1
# window=12
# threshold=4.0
[steps]
time_s,height_G0,confidence,transconductance_G0_per_V,implied_coupling_V
[intervals]
bin_start_s,count
[fit]
event_count,mean_interval_s,rate_per_s,ks_statistic
[correlation]
pearson_r,n_used,mean_implied_coupling_V,status
nan,0,nan,insufficient events
[saturation]
saturation_detected,step_count,total_rise_G0
true,0,-0.0
"""


def test_exposure_trace_text_is_pinned():
    trace = Trace(TIME_AXIS, np.array([-1.0, -0.0, 0.5, 1e16]),
                  np.array([5e-324, 1.0, 2.0000000000000004, -1e-300]),
                  [(0.25, 0.002), (0.5, 1e-05)],
                  dict(EXPOSURE_CONFIG), photons_incident=7, photons_absorbed=3)
    assert trace_to_text(trace) == EXPOSURE_TEXT


def test_trace_without_events_text_is_pinned():
    trace = Trace(GATE_AXIS, np.array([-1.5, -1.25]), np.array([0.0, 0.5]), None,
                  {"kind": "sweep", "n_points": 2, "v_start": -1.5})
    assert trace_to_text(trace) == SWEEP_TEXT


def test_report_with_fit_histogram_and_nan_correlation_is_pinned():
    report = AnalysisReport(
        steps=np.array([[10.5, 0.01, 5.25], [42.0, 0.125, 12.0], [100.0, 0.0625, 4.5]]),
        interval_fit=IntervalFit(3, 44.75, 1 / 44.75, 0.3),
        height_correlation=math.nan,
        implied_couplings=np.array([math.nan, 0.002, 0.0015]),
        transconductances=np.array([1e-05, 62.5, 41.666666666666664]),
        saturation_detected=False, total_conductance_rise=0.1975,
        config=AnalysisConfig(window=8, threshold=4.0),
        histogram=(np.arange(3) * (44.75 / 3.0), np.array([1, 0, 1])),
    )
    assert report_to_text(report) == FULL_REPORT_TEXT


def test_report_without_fit_or_histogram_is_pinned():
    report = AnalysisReport(
        steps=np.empty((0, 3)), interval_fit=None, height_correlation=math.nan,
        implied_couplings=np.empty(0), transconductances=np.empty(0), saturation_detected=True,
        total_conductance_rise=-0.0,
    )
    assert report_to_text(report) == EMPTY_REPORT_TEXT


def test_fmt_writes_numpy_scalars_as_python_values():
    assert fmt(True) == "true" and fmt(np.bool_(False)) == "false"
    assert fmt(np.float64(0.1)) == fmt(0.1) == "0.1"
    assert fmt(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert fmt(np.int64(3)) == fmt(3) == "3"
    assert fmt(-0.0) == "-0.0" and fmt(math.nan) == "nan"
    assert fmt("undefined") == "undefined"


def test_numpy_floats_in_a_trace_header_read_back_as_floats():
    # numpy 2 reprs a float64 as "np.float64(-1.5)", which would read back
    # as a string
    config = {"gate_bias": np.float64(-1.5), "seed": 3, "dark_lead": 60.0,
              "barrier_includes_buffer": np.bool_(True)}
    trace = Trace(TIME_AXIS, [0.0], [np.float64(0.25)],
                  [(np.float64(0.5), np.float64(0.001))], config)
    text = trace_to_text(trace)
    assert text.splitlines()[2:6] == ["# barrier_includes_buffer=true",
                                      "# dark_lead=60.0", "# gate_bias=-1.5",
                                      "# seed=3"]
    assert text.endswith("0.0,0.25\nevents\ntime_s,coupling_V\n0.5,0.001\n")
    assert trace_from_text(text).config == {
        "gate_bias": -1.5, "seed": 3, "dark_lead": 60.0,
        "barrier_includes_buffer": True}


def test_csv_text_layout():
    text = csv_text("qpcsim demo v1", {"n": 2, "flag": False},
                    (None, "a,b", [[1, np.int64(2)], [0.5, np.float64(1e-05)]]),
                    ("[more]", "c", [["x"]]),
                    ("[empty]", "d", [[]]))
    assert text == ("# qpcsim demo v1\n# n=2\n# flag=false\na,b\n1,0.5\n2,1e-05\n"
                    "[more]\nc\nx\n[empty]\nd\n")


# ---------------------------------------------------------------------------
# round trips over arbitrary values
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)

EXTREMES = [-1.7976931348623157e308, -1e16, -5e-324, -0.0, 5e-324,
            2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def traces(draw):
    times = sorted(draw(st.lists(finite, min_size=1, max_size=20, unique=True)))
    values = draw(st.lists(finite, min_size=len(times), max_size=len(times)))
    rows = draw(st.none() | st.lists(st.tuples(finite, finite), max_size=6).map(sorted))
    config = {"initial_gate_shift": draw(finite), "gate_bias": draw(finite),
              "seed": draw(st.integers()), "barrier_includes_buffer": draw(st.booleans())}
    return Trace(draw(st.sampled_from([TIME_AXIS, GATE_AXIS])), times, values, rows,
                 config, draw(st.integers(0, 2**63)), draw(st.integers(0, 2**63)))


@settings(max_examples=150, deadline=None, derandomize=True)
@example(trace=Trace(TIME_AXIS, EXTREMES, EXTREMES[::-1],
                     [(-0.0, 5e-324), (1e308, -0.0)],
                     {"initial_gate_shift": -0.0}))
@given(trace=traces())
def test_trace_text_round_trip_is_bit_exact(trace):
    with np.errstate(over="ignore"):
        back = trace_from_text(trace_to_text(trace))
    assert back.axis_kind == trace.axis_kind
    assert _bits(back.times) == _bits(trace.times)
    assert _bits(back.conductance) == _bits(trace.conductance)
    assert {k: repr(v) for k, v in back.config.items()} == \
           {k: repr(v) for k, v in trace.config.items()}
    assert (back.photons_incident, back.photons_absorbed) == \
           (trace.photons_incident, trace.photons_absorbed)
    if trace.truth_events is None:
        assert back.truth_events is None
    else:
        def fields_of(events):
            return _bits([(e.time, e.coupling) for e in events])
        assert fields_of(back.truth_events) == fields_of(trace.truth_events)


@st.composite
def exposures(draw):
    duration = draw(st.floats(0.0, 1e300, exclude_min=True))
    dark_lead = draw(st.floats(0.0, 1e300))
    # at least twice the shortest interval the sample cap allows
    shortest = max(2.0 * (duration + dark_lead) / MAX_SAMPLES, 1e-300)
    return ExposureConfig(duration=duration, dark_lead=dark_lead,
                          sample_interval=draw(st.floats(shortest, 1e300)),
                          gate_bias=draw(finite), noise_sigma=draw(non_negative))


run_configs = st.builds(
    RunConfig,
    device=st.builds(
        DeviceParams, fermi_energy=finite, temperature=positive, mode_spacing=positive,
        tunnel_width=positive, lever_arm=positive, threshold_voltage=finite,
        num_modes=st.integers(1, MAX_MODES), anomaly_enabled=st.booleans(),
        anomaly_weight=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        anomaly_split=finite),
    traps=st.builds(
        TrapConfig, carrier_density=st.floats(1e10, 1e14),
        active_area=st.floats(1e-10, 1e-8), saturation_gate_shift=positive,
        buffer_trap_count=st.integers(0, 10**9), buffer_coupling_scale=positive),
    source=st.builds(PhotonSource, wavelength=positive, incident_rate=non_negative,
                     quantum_efficiency=st.floats(0.0, 1.0)),
    exposure=exposures(),
    analysis=st.builds(AnalysisConfig, window=st.integers(min_value=2), threshold=positive,
                       bin_width=non_negative),
    seed=st.integers(),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=run_configs)
def test_config_text_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@example(value=math.nan)
@example(value=-0.0)
@example(value=-math.inf)
@given(value=st.booleans() | st.integers() | st.floats())
def test_typed_reads_back_what_fmt_writes(value):
    back = typed("key", _parse_value(fmt(value)), type(value))
    assert type(back) is type(value) and repr(back) == repr(value)


@pytest.mark.parametrize("value,typ", [
    (True, int), (1, bool), ("true", bool), (1.0, int), (True, float), ("1.5", float),
    (10**400, float),
])
def test_typed_rejects_other_types_naming_the_key(value, typ):
    with pytest.raises(ValueError, match=f"^key must be {typ.__name__}, got "):
        typed("key", value, typ)


def test_typed_widens_an_int_to_float():
    assert repr(typed("key", -3, float)) == "-3.0"


# ---------------------------------------------------------------------------
# the column writer against a row-at-a-time reference
# ---------------------------------------------------------------------------

def row_wise_csv_text(title, header, *tables):
    """The same layout as `csv_text`, written a row at a time."""
    lines = [f"# {title}"] + [f"# {key}={fmt(value)}" for key, value in header.items()]
    for table_title, names, columns in tables:
        if table_title is not None:
            lines.append(table_title)
        lines.append(names)
        lines += [",".join(map(fmt, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    EXTREMES + [math.nan, -math.inf, math.inf, 1e-310, -2.5e-320])


def float_array(dtype):
    def build(xs):
        with np.errstate(over="ignore"):  # large floats become +-inf in float16/32
            return np.array(xs, dtype=dtype)
    return build


def column_of(kind, size):
    floats = st.lists(any_float, min_size=size, max_size=size)
    return {
        "float64": floats.map(float_array(np.float64)),
        "float32": floats.map(float_array(np.float32)),
        "float16": floats.map(float_array(np.float16)),
        "longdouble": floats.map(float_array(np.longdouble)),
        "python floats": floats,
        "numpy float scalars": floats.map(lambda xs: [np.float64(x) for x in xs]),
        "int": st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size)
                 .map(lambda xs: np.array(xs, dtype=np.int64)),
        "python ints": st.lists(st.integers(), min_size=size, max_size=size),
        "bool": st.lists(st.booleans(), min_size=size, max_size=size).map(np.array),
        "numpy bool scalars": st.lists(st.booleans(), min_size=size, max_size=size)
                                .map(lambda xs: [np.bool_(x) for x in xs]),
        "strings": st.lists(st.text(), min_size=size, max_size=size),
    }[kind]


COLUMN_KINDS = ["float64", "float32", "float16", "longdouble", "python floats",
                "numpy float scalars", "int", "python ints", "bool",
                "numpy bool scalars", "strings"]


@st.composite
def column_tables(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4))
    columns = [draw(column_of(kind, rows)) for kind in kinds]
    title = draw(st.none() | st.sampled_from(["events", "[steps]"]))
    return title, ",".join(f"c{j}" for j in range(len(columns))), columns


@settings(max_examples=200, deadline=None, derandomize=True)
@example(tables=[(None, "x,y", [np.array([math.nan, -0.0, 5e-324, 1.7976931348623157e308,
                                           -1.7976931348623157e308, math.inf]),
                                 np.array([0.1, 2.2250738585072014e-308, -5e-324, 1e16,
                                           -math.inf, 1.8e308])])])
@example(tables=[("[empty]", "a,b", [np.empty(0), []]), ("[none]", "c", [])])
@given(tables=st.lists(column_tables(), max_size=3))
def test_column_writer_matches_row_wise_reference(tables):
    header = {"n": len(tables), "flag": True}
    assert csv_text("qpcsim demo v1", header, *tables) == \
        row_wise_csv_text("qpcsim demo v1", header, *tables)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(0, 5), min_size=2, max_size=4).filter(
    lambda ns: len(set(ns)) > 1))
def test_column_writer_rejects_unequal_lengths(lengths):
    columns = [np.zeros(n) if j % 2 else [1] * n for j, n in enumerate(lengths)]
    names = ",".join("c" * (j + 1) for j in range(len(lengths)))
    with pytest.raises(ValueError, match="equal lengths"):
        csv_text("qpcsim demo v1", {}, (None, names, columns))


def block_column(kind, rows, rng):
    """A column of `kind` with `rows` values, drawn from `rng` rather than hypothesis."""
    specials = EXTREMES + [math.nan, -math.inf, math.inf, 1e-310, -2.5e-320, 0.1, 1.0]
    floats = (rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)).tolist()
    floats[::7] = rng.choice(specials, len(floats[::7])).tolist()
    ints = rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64, endpoint=True)
    flags = rng.random(rows) < 0.5
    return {
        "float64": float_array(np.float64)(floats),
        "float32": float_array(np.float32)(floats),
        "float16": float_array(np.float16)(floats),
        "longdouble": float_array(np.longdouble)(floats),
        "python floats": floats,
        "numpy float scalars": [np.float64(x) for x in floats],
        "int": ints,
        "python ints": [x * 10**20 + 7 for x in ints.tolist()],
        "bool": flags,
        "numpy bool scalars": list(flags),
        "strings": [f"s{x}\u00e9" for x in ints.tolist()],
    }[kind]


@pytest.mark.parametrize("kind", COLUMN_KINDS)
def test_column_writer_matches_row_wise_reference_past_a_block(kind):
    rows = 2 * simulate._WRITE_ROWS + 1  # two full blocks and one row
    rng = np.random.default_rng(COLUMN_KINDS.index(kind))
    tables = [(None, "a,b", [block_column(kind, rows, rng), block_column("float64", rows, rng)]),
              ("[all]", ",".join(COLUMN_KINDS),
               [block_column(k, simulate._WRITE_ROWS + 1, rng) for k in COLUMN_KINDS])]
    with np.errstate(over="ignore"):
        assert csv_text("qpcsim demo v1", {}, *tables) == \
            row_wise_csv_text("qpcsim demo v1", {}, *tables)


# ---------------------------------------------------------------------------
# the block reader against the line-at-a-time reader it replaced
# ---------------------------------------------------------------------------

def line_wise_trace_from_text(text):
    """`trace_from_text` as it was when every data line went through `float`.

    Header values are typed by the same rule, in the same order, and the
    event times must be finite and non-decreasing.
    """
    header = {}
    times, values = [], []
    event_rows = None
    section = "samples"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                continue
            key, _, val = body.partition("=")
            header[key.strip()] = _parse_value(val.strip())
            continue
        if line == "events":
            if event_rows is not None:
                raise ValueError("trace file has more than one events section")
            section = "events"
            event_rows = []
            continue
        if line in ("time_s,conductance_G0", "gate_voltage_V,conductance_G0",
                    "time_s,coupling_V"):
            continue
        a, _, b = line.partition(",")
        try:
            a, b = float(a), float(b)
        except ValueError:
            raise ValueError(f"trace line {lineno}: {line!r} is neither a known "
                             "section title, a column line nor a data row") from None
        if section == "samples":
            times.append(a)
            values.append(b)
        else:
            event_rows.append((a, b))
    axis_kind = header.pop("axis", TIME_AXIS)
    incident = typed("photons_incident", header.pop("photons_incident", 0), int)
    absorbed = typed("photons_absorbed", header.pop("photons_absorbed", 0), int)
    if event_rows is not None:
        typed("initial_gate_shift", header.get("initial_gate_shift", 0.0), float)
        event_times = [t for t, _ in event_rows]
        if not all(math.isfinite(t) for t in event_times) or \
                any(b < a for a, b in zip(event_times, event_times[1:])):
            raise ValueError("events section: times must be finite and non-decreasing")
    return Trace(axis_kind, np.array(times), np.array(values), event_rows, header,
                 photons_incident=incident, photons_absorbed=absorbed)


def read_outcome(read, text):
    """Everything a reader gives back for `text`, or the error it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = read(text)
    except Exception as exc:  # the exception type and message must match too
        return type(exc), str(exc)
    events = None if trace.truth_events is None else _bits(
        [(e.time, e.coupling) for e in trace.truth_events])
    return (trace.axis_kind, _bits(trace.times), _bits(trace.conductance),
            {k: repr(v) for k, v in trace.config.items()},
            trace.photons_incident, trace.photons_absorbed, events)


ONE_ROW_EMPTY_EVENTS_TEXT = """\
# qpcsim trace v1
# axis=exposure-time
time_s,conductance_G0
0.5,0.25
events
time_s,coupling_V
"""

ODD_LINES = ["1,2,3", "1,", ",2", "1,2#x", "1_0,2", "１,2", " 1 , 2 ", "1 ,\t2",
             "1\xa0,2", "nan,1", "1,inf", "1e999,2", "0x10,2", "1,2\x00", "﻿1,2",
             "-0.0,5e-324", "events", "[steps]", "time_s,coupling_V", "# photons_incident=x",
             "# initial_gate_shift=1e308", "", "2,3\n4,5", "99,1\n100,2"]

number_like = st.text(alphabet="0123456789_.,+-eE naif#\t１\xa0", max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trace=traces(), data=st.data())
def test_block_reader_matches_line_wise_reader(trace, data):
    with np.errstate(over="ignore"):
        lines = trace_to_text(trace).splitlines()
    at = data.draw(st.integers(0, len(lines)))
    line = data.draw(st.sampled_from(ODD_LINES) | number_like | st.text(max_size=12))
    replace = data.draw(st.booleans()) and at < len(lines)
    lines[at:at + replace] = [line]
    text = "\n".join(lines) + "\n"
    assert read_outcome(trace_from_text, text) == \
        read_outcome(line_wise_trace_from_text, text)


@pytest.mark.parametrize("base", [EXPOSURE_TEXT, SWEEP_TEXT, ONE_ROW_EMPTY_EVENTS_TEXT])
@pytest.mark.parametrize("line", ODD_LINES)
def test_block_reader_matches_line_wise_reader_on_odd_lines(base, line):
    lines = base.splitlines()
    columns = [i for i, text in enumerate(lines) if text.endswith("_G0")][0]
    # in place of the first sample, after the last sample, and as the last line
    for at, replace in ((columns + 1, 1), (columns + 2, 0), (len(lines), 0)):
        edited = lines[:at] + [line] + lines[at + replace:]
        text = "\n".join(edited) + "\n"
        assert read_outcome(trace_from_text, text) == \
            read_outcome(line_wise_trace_from_text, text), (at, replace)


def test_one_row_sample_section_and_empty_events_section_read_back():
    trace = trace_from_text(ONE_ROW_EMPTY_EVENTS_TEXT)
    assert trace.times.tolist() == [0.5] and trace.conductance.tolist() == [0.25]
    assert trace.truth_events == []
    assert trace_to_text(trace) == ONE_ROW_EMPTY_EVENTS_TEXT.replace(
        "time_s,conductance_G0", "# photons_incident=0\n# photons_absorbed=0\n"
        "time_s,conductance_G0")


def test_cli_traces_survive_text_to_trace_to_text(tmp_path):
    assert main(["sweep", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert main(["expose", "--seed", "1", "--out", str(tmp_path)]) == 0
    for name in ("sweep_trace.csv", "exposure_trace.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert trace_to_text(trace_from_text(text)) == text, name


# ---------------------------------------------------------------------------
# block edges and memory, on traces longer than one block
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def long_trace_lines():
    """Lines of a 10,001-point noisy sweep and of an 8,000-event 700 nm exposure.

    The exposure is sampled every 50 s, so its events are most of its text.
    """
    device = DeviceParams()
    sweep = simulate_gate_sweep(device, -1.5, -1.2, 10_001, 0.005, seed=3)
    exposure = simulate_exposure(device, build_ensemble(TrapConfig(buffer_trap_count=8000), 5),
                                 PhotonSource(wavelength=700.0, incident_rate=6.0),
                                 ExposureConfig(sample_interval=50.0, seed=7))
    assert exposure.photons_captured == 8000
    return {"sweep": trace_to_text(sweep).splitlines(),
            "exposure": trace_to_text(exposure).splitlines()}


def block_cuts(text):
    """Indices of the lines that start a block of `text`, after the first."""
    return list(itertools.accumulate(map(len, simulate._text_blocks(text))))[:-1]


def flat_blocks(text):
    return [line for block in simulate._text_blocks(text) for line in block]


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", ["sweep", "exposure"])
def test_block_reader_matches_line_wise_reader_at_block_edges(long_trace_lines, kind, ending,
                                                              monkeypatch):
    """Each of ODD_LINES at each block edge and the lines either side of it.

    The whole trace is read in blocks of the module's size.  The edits are
    read in blocks of 2,048 characters over the first 600 lines, which keeps
    the texts short.  Besides the size cuts, the section cuts are edges: after
    the sample column line, so the first block holds the header alone; and
    in the exposure, before the events title and after the events column
    line, so the title and column line are a block of their own.
    """
    text = ending.join(long_trace_lines[kind]) + ending
    assert len(block_cuts(text)) >= 16
    assert flat_blocks(text) == text.splitlines()
    assert read_outcome(trace_from_text, text) == read_outcome(line_wise_trace_from_text, text)
    monkeypatch.setattr(simulate, "_READ_CHARS", 2048)
    lines = long_trace_lines[kind][:600]
    cuts = block_cuts(ending.join(lines) + ending)
    assert len(cuts) >= 7
    sections = [next(i for i, line in enumerate(lines) if line.endswith("_G0")) + 1]
    if kind == "exposure":
        sections += [lines.index("events"), lines.index("events") + 2]
    assert set(sections) <= set(cuts)
    for edge in cuts:
        for at in (edge - 1, edge, edge + 1):
            for line in ODD_LINES:
                text = ending.join(lines[:at] + [line] + lines[at + 1:]) + ending
                assert flat_blocks(text) == text.splitlines(), (edge, at, line)
                assert read_outcome(trace_from_text, text) == \
                    read_outcome(line_wise_trace_from_text, text), (edge, at, line)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("blank", ["", " ", "\t \xa0"])
def test_runs_of_blank_lines_longer_than_a_block_read_like_the_reference(long_trace_lines,
                                                                        blank):
    # loadtxt warns on a block of empty lines, and rejects whitespace-only lines
    lines = long_trace_lines["sweep"]
    run = [blank] * (2 * simulate._READ_CHARS // (len(blank) + 1))  # a block of them, at least
    text = "\n".join(lines[:5000] + run + lines[5000:]) + "\n"
    assert any(not "".join(block).strip() for block in simulate._text_blocks(text))
    assert read_outcome(trace_from_text, text) == read_outcome(line_wise_trace_from_text, text)
    assert trace_from_text(text).times.size == \
        len(lines) - lines.index("gate_voltage_V,conductance_G0") - 1


@pytest.fixture(scope="module")
def long_sweep():
    trace = simulate_gate_sweep(DeviceParams(), -1.5, -1.2, 200_000, 0.005, seed=1)
    return trace, trace_to_text(trace)


def test_writer_memory_is_about_twice_the_text(long_sweep, peak_bytes):
    trace, text = long_sweep
    assert peak_bytes(trace_to_text, trace) < 3 * len(text)  # the parts and their join


def test_reader_memory_is_a_few_times_the_arrays(long_sweep, peak_bytes):
    trace, text = long_sweep
    arrays = trace.times.nbytes + trace.conductance.nbytes
    # the parsed blocks, and the two columns built from them
    assert peak_bytes(trace_from_text, text) < 4 * arrays
