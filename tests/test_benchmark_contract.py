"""The package names the benchmark in `perfbench/` calls still exist and work.

`perfbench` runs outside this suite, so removing or renaming a function it
calls would otherwise pass here and break only the benchmark.  This test
loads its workload and tracer modules unchanged, builds the tracer (which
looks up every traced layer function), and runs each workload's unit once,
traced, at the smoke sizes, then that unit's own correctness checks, and
checks that each capture the unit made passed through the traced
`capture_photon` once.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
