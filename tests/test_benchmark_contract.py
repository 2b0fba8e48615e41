"""The package names the benchmark in `perfbench/` calls still exist and work.

`perfbench` runs outside this suite, so removing or renaming a function it
calls would otherwise pass here and break only the benchmark.  This test
loads its workload and tracer modules unchanged, builds the tracer (which
looks up every traced layer function), and runs each workload's unit once,
traced, at the smoke sizes, then that unit's own correctness checks, and
checks that each capture the unit made passed through the traced
`capture_photon` once.  The calls `perfbench/run.py` makes outside its
traced units, the conductance and capture series, are made here as it
makes them.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qpcsim import charge, cli, transport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

if not (PERFBENCH / "workloads.py").is_file():
    pytest.skip("no perfbench/ in this checkout", allow_module_level=True)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, spans = load("workloads"), load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks_traced(name):
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[name](workloads.SMOKE_SIZES)
    with tracer.unit(name):
        out = workload.run(workload.unit_seed(1, 0))
    made = workload.check(out)
    assert set(made) == set(workload.makes)
    # every workload's unit reaches the transport layer through a traced name
    totals = tracer.totals()
    assert "transport.conductance" in totals
    # the per-layer capture metrics read one capture_photon span per capture
    if "captures" in made:
        span = totals["charge.capture_photon"]
        assert made["captures"] > 0
        assert span["calls"] == span["count"] == made["captures"]


def test_conductance_series_calls():
    # run.py times conductance at one scalar point and on grids of n points
    device = transport.DeviceParams()
    v = device.threshold_voltage + 0.1
    g = transport.conductance(v, device)
    assert isinstance(g, float) and 0.0 <= g <= device.num_modes
    grid = np.linspace(device.threshold_voltage, device.threshold_voltage + 0.3, 601)
    series = transport.conductance(grid, device)
    assert series.shape == (601,) and np.all(np.diff(series) >= 0.0)


def test_capture_series_calls():
    # run.py fills buffer traps one capture_photon(ensemble, layer, rng) at a
    # time, with no free list and no pick
    ensemble = charge.build_ensemble(charge.TrapConfig(buffer_trap_count=50),
                                     cli.subseed(1, "capture-50-0"))
    rng = np.random.default_rng(cli.subseed(1, "capture-50-0-rng"))
    layer = charge.absorption_target(700.0)
    picked = [charge.capture_photon(ensemble, layer, rng) for _ in range(50)]
    assert ensemble.occupied_count == 50 and sorted(picked) == sorted(set(picked))
    assert all(i >= ensemble.dopant_count for i in picked)
    assert charge.capture_photon(ensemble, layer, rng) is None
