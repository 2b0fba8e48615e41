"""Simulator and analysis toolkit for a point-contact single-photon detector.

The package composes four layers:

* `transport` -- quantized channel conductance vs gate voltage (saddle-point
  transmission, thermal broadening, phenomenological 0.7-like shoulder);
* `charge`    -- the trap ensemble that converts captured photo-holes into
  persistent effective gate shifts;
* `simulate`  -- event-driven exposure and sweep experiments producing
  reproducible traces with ground-truth event logs;
* `analyze`   -- step detection, exponential interval statistics, and the
  step-height vs transconductance correlation.

`cli` wires them into the `qpcsim` command.
"""

from .analyze import (
    AnalysisConfig,
    AnalysisReport,
    IntervalFit,
    StepEvent,
    analyze_trace,
    correlate_heights,
    detect_steps,
    estimate_noise_sigma,
    fit_exponential,
    saturation_summary,
)
from .charge import (
    PhotonSource,
    TrapConfig,
    TrapEnsemble,
    absorption_target,
    build_ensemble,
    capture_photon,
    capture_photons,
    effective_gate_shift,
)
from .simulate import (
    ExposureConfig,
    TruthEvent,
    exposure_to_gate_equivalence,
    poisson_event_times,
    read_trace,
    simulate_exposure,
    simulate_gate_sweep,
)
from .transport import (
    ConductanceCurve,
    DeviceParams,
    Trace,
    conductance,
    differential_conductance,
    sweep,
    transconductance,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "AnalysisReport", "IntervalFit", "StepEvent", "analyze_trace",
    "correlate_heights", "detect_steps", "estimate_noise_sigma",
    "fit_exponential", "saturation_summary",
    "PhotonSource", "TrapConfig", "TrapEnsemble", "absorption_target",
    "build_ensemble", "capture_photon", "capture_photons",
    "effective_gate_shift",
    "ExposureConfig", "Trace", "TruthEvent", "exposure_to_gate_equivalence",
    "poisson_event_times", "read_trace", "simulate_exposure", "simulate_gate_sweep",
    "ConductanceCurve", "DeviceParams", "conductance", "differential_conductance",
    "sweep", "transconductance",
]
