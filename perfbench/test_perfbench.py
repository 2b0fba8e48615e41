"""Self-test of the benchmark.

Runs the smoke mode (every workload once, at small size, untraced and
traced) and checks that each result passes its correctness checks and
carries every metric the benchmark is defined by, with its unit.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ["expose-analyze-550", "buffer-700-saturate", "gate-sweep-dense"]

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "run_s_p50": "s", "run_s_p90": "s",
    "captures_per_s": "1/s", "gate_points_per_s": "1/s",
    "cli_sweep_s": "s", "cli_expose_s": "s", "cli_analyze_s": "s", "cli_figures_s": "s",
}

PER_LAYER = {
    "transport.conductance.calls": "count",
    "transport.conductance.points": "count",
    "transport.conductance.self_s": "s",
    "transport.transconductance.calls": "count",
    "transport.transconductance.points": "count",
    "transport.transconductance.self_s": "s",
    "transport.conductance.us_per_point.n1": "us",
    "transport.conductance.us_per_point.n601": "us",
    "transport.conductance.us_per_point.n20001": "us",
    "charge.capture_photon.calls": "count",
    "charge.capture_photon.self_s": "s",
    "charge.capture_photon.useful_ratio": "ratio",
    "charge.capture_us.n2000": "us",
    "charge.capture_us.n8000": "us",
    "charge.capture_us.n32000": "us",
    "charge.build_ensemble.self_s": "s",
    "charge.effective_gate_shift.self_s": "s",
    "simulate.simulate_exposure.self_s": "s",
    "simulate.simulate_gate_sweep.self_s": "s",
    "simulate.trace_to_text.self_s": "s",
    "simulate.trace_to_text.bytes": "bytes",
    "simulate.trace_from_text.self_s": "s",
    "analyze.correlate_heights.self_s": "s",
    "analyze.detect_steps.self_s": "s",
    "analyze.steps_detected": "count",
    "analyze.saturation_summary.self_s": "s",
    "analyze.fit_exponential.self_s": "s",
    "cli.import_qpcsim_s": "s",
    "cli.import_scipy_optimize_s": "s",
    "cli.main.self_s.sweep": "s",
    "cli.main.self_s.expose": "s",
    "cli.main.self_s.analyze": "s",
    "cli.main.self_s.figures": "s",
    "trace.overhead_pct": "%",
}


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return proc, [line for line in lines if "metrics" in line]


def test_smoke_run_passes_its_checks(smoke):
    proc, results = smoke
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert len(results) == 2 * len(WORKLOADS)
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_metric_is_emitted_with_its_unit(smoke):
    _, results = smoke
    untraced, traced = results[0::2], results[1::2]
    for result in untraced:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for result in traced:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    for result in results:
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            if name != "trace.overhead_pct":
                assert metric["value"] > 0, name


def test_benchmark_json_declares_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_package_sources():
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        (bare / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
