"""Exact bytes of the trace and report files, on hand-built inputs.

The inputs are written out here rather than simulated, so these texts pin
the file layout and the float formatting independently of the numerics:
a change to transport or analysis cannot move them, a change to a writer
cannot pass them unnoticed.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcsim.analyze import AnalysisReport, IntervalFit, StepEvent, report_to_text
from qpcsim.charge import PhotonSource, TrapConfig, cumulative_gate_shift
from qpcsim.cli import RunConfig, parse_config, serialize_config
from qpcsim.simulate import (
    MAX_EXPOSURE_SAMPLES,
    ExposureConfig,
    Trace,
    TruthEvent,
    csv_text,
    fmt,
    trace_from_text,
    trace_to_text,
)
from qpcsim.transport import GATE_AXIS, TIME_AXIS, DeviceParams

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
                  [TruthEvent(0.25, 0.002, 0.002), TruthEvent(0.5, 1e-05, 0.00201)],
                  dict(EXPOSURE_CONFIG), photons_incident=7, photons_absorbed=3)
    assert trace_to_text(trace) == EXPOSURE_TEXT


def test_trace_without_events_text_is_pinned():
    trace = Trace(GATE_AXIS, np.array([-1.5, -1.25]), np.array([0.0, 0.5]), None,
                  {"kind": "sweep", "n_points": 2, "v_start": -1.5})
    assert trace_to_text(trace) == SWEEP_TEXT


def test_report_with_fit_histogram_and_nan_correlation_is_pinned():
    report = AnalysisReport(
        steps=[StepEvent(10.5, 0.01, 5.25), StepEvent(42.0, 0.125, 12.0),
               StepEvent(100.0, 0.0625, 4.5)],
        interval_fit=IntervalFit(3, 44.75, 1 / 44.75, 0.3),
        height_correlation=math.nan,
        implied_couplings=[math.nan, 0.002, 0.0015],
        transconductances=[1e-05, 62.5, 41.666666666666664],
        saturation_detected=False, total_conductance_rise=0.1975,
        correlation_status="undefined", window=8, threshold=4.0,
        histogram=(np.arange(3) * (44.75 / 3.0), np.array([1, 0, 1])),
    )
    assert report_to_text(report) == FULL_REPORT_TEXT


def test_report_without_fit_or_histogram_is_pinned():
    report = AnalysisReport(
        steps=[], interval_fit=None, height_correlation=math.nan,
        implied_couplings=[], transconductances=[], saturation_detected=True,
        total_conductance_rise=-0.0, correlation_status="insufficient events",
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
                  [TruthEvent(np.float64(0.5), np.float64(0.001), 0.001)], config)
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
                    (None, "a,b", [(1, 0.5), (np.int64(2), np.float64(1e-05))]),
                    ("[more]", "c", iter([("x",)])),
                    ("[empty]", "d", []))
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
    rows = draw(st.none() | st.lists(st.tuples(finite, finite), max_size=6))
    initial = draw(finite)
    config = {"initial_gate_shift": initial, "gate_bias": draw(finite),
              "seed": draw(st.integers()), "barrier_includes_buffer": draw(st.booleans())}
    events = None
    if rows is not None:
        with np.errstate(over="ignore"):
            levels = cumulative_gate_shift(initial, [c for _, c in rows])
        events = [TruthEvent(t, c, float(s)) for (t, c), s in zip(rows, levels[1:])]
    return Trace(draw(st.sampled_from([TIME_AXIS, GATE_AXIS])), times, values, events,
                 config, draw(st.integers(0, 2**63)), draw(st.integers(0, 2**63)))


@settings(max_examples=150, deadline=None, derandomize=True)
@example(trace=Trace(TIME_AXIS, EXTREMES, EXTREMES[::-1],
                     [TruthEvent(-0.0, 5e-324, 5e-324), TruthEvent(1e308, -0.0, 5e-324)],
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
            return _bits([(e.time, e.coupling, e.gate_shift_after) for e in events])
        assert fields_of(back.truth_events) == fields_of(trace.truth_events)


@st.composite
def exposures(draw):
    duration = draw(st.floats(0.0, 1e300, exclude_min=True))
    dark_lead = draw(st.floats(0.0, 1e300))
    # at least twice the shortest interval the sample cap allows
    shortest = max(2.0 * (duration + dark_lead) / MAX_EXPOSURE_SAMPLES, 1e-300)
    return ExposureConfig(duration=duration, dark_lead=dark_lead,
                          sample_interval=draw(st.floats(shortest, 1e300)),
                          gate_bias=draw(finite), noise_sigma=draw(non_negative),
                          barrier_includes_buffer=draw(st.booleans()))


run_configs = st.builds(
    RunConfig,
    device=st.builds(
        DeviceParams, fermi_energy=finite, temperature=positive, mode_spacing=positive,
        tunnel_width=positive, lever_arm=positive, threshold_voltage=finite,
        num_modes=st.integers(1, 10**6), anomaly_enabled=st.booleans(),
        anomaly_weight=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        anomaly_split=finite, source_drain_bias=finite),
    traps=st.builds(
        TrapConfig, carrier_density=st.floats(1e10, 1e14),
        active_area=st.floats(1e-10, 1e-8), channel_capacitance=finite,
        saturation_gate_shift=positive,
        coupling_distribution=st.sampled_from(["exponential", "constant"]),
        buffer_trap_count=st.integers(0, 10**9), buffer_coupling_scale=positive),
    source=st.builds(PhotonSource, wavelength=positive, incident_rate=non_negative,
                     quantum_efficiency=st.floats(0.0, 1.0)),
    exposure=exposures(),
    window=st.integers(), threshold=finite, bin_width=finite, seed=st.integers(),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=run_configs)
def test_config_text_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
