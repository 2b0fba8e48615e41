"""qpcsim benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expose-analyze-550 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

With `--trace 0` the run reports the end-to-end metrics, with tracing off.
With `--trace 1` it runs a fixed number of units untraced and traced,
and reports the per-layer metrics, the scaling series and the tracing
overhead.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment.  Full results and the traced spans go to `perfbench/out/`.
See perfbench/README.md for what each metric means on each workload.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported and inherited by
# every child process: `conductance` reduces with `t @ kernel` through BLAS,
# and on a two-core machine a thread pool would make the timings measure
# the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("expose-analyze-550", "buffer-700-saturate", "gate-sweep-dense")
CLI_NAMES = ("sweep", "expose", "analyze", "figures")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s_p50": "s",
    "run_s_p90": "s",
    "captures_per_s": "1/s",
    "gate_points_per_s": "1/s",
    **{f"cli_{c}_s": "s" for c in CLI_NAMES},
}

CONDUCTANCE_SERIES = {1: 200, 601: 20, 20001: 3}        # points -> repeats
CAPTURE_SERIES = (2000, 8000, 32000)                     # buffer traps
CAPTURE_SERIES_REPEATS = 3                               # fresh ensembles per size

PER_LAYER = {
    "transport.conductance.calls": "count",
    "transport.conductance.points": "count",
    "transport.conductance.self_s": "s",
    "transport.transconductance.calls": "count",
    "transport.transconductance.points": "count",
    "transport.transconductance.self_s": "s",
    **{f"transport.conductance.us_per_point.n{n}": "us" for n in CONDUCTANCE_SERIES},
    "charge.capture_photon.calls": "count",
    "charge.capture_photon.self_s": "s",
    "charge.capture_photon.useful_ratio": "ratio",
    **{f"charge.capture_us.n{n}": "us" for n in CAPTURE_SERIES},
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
    **{f"cli.main.self_s.{c}": "s" for c in CLI_NAMES},
    "trace.overhead_pct": "%",
}


@dataclass
class Plan:
    """How much work one run does besides its timed loop."""

    smoke: bool = False
    setup_reps: int = 3          # fresh-interpreter set-ups; setup_s is their median
    import_reps: int = 3         # fresh interpreters per import timing
    # one untimed unit before timing, at smoke size: it runs every code path
    # of a full unit (lazy imports, quadrature cache) in a fraction of the time
    warm_up: bool = True
    # units per companion kind; the CLI units take most of a run's wall time,
    # about 3 s each, so their number sets how long a run lasts
    companion_units: dict = field(default_factory=lambda: {
        "captures": 8, "gate_points": 20, "cli": 6})
    traced_units: dict = field(default_factory=lambda: {
        "expose-analyze-550": 12, "buffer-700-saturate": 2, "gate-sweep-dense": 4})
    series_scale: float = 1.0    # share of CONDUCTANCE_SERIES repeats and captures
    captures_per_series: int = 200


SMOKE_PLAN = Plan(
    smoke=True, setup_reps=1, import_reps=1, warm_up=False,
    companion_units={"captures": 1, "gate_points": 1, "cli": 2},
    traced_units={"expose-analyze-550": 1, "buffer-700-saturate": 1, "gate-sweep-dense": 1},
    series_scale=0.1, captures_per_series=20)


class Ledger:
    """Operations attempted and failed in one run; a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def unit(self, workload, seed, runner=None):
        """Run, time and check one unit; returns (seconds, counts)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = (runner or workload.run)(seed)
        except Exception:  # a broken unit is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            self._fail(workload, seed)
            return elapsed, {}
        elapsed = time.perf_counter() - start
        return elapsed, self.check(workload, seed, out)

    def check(self, workload, seed, out) -> dict:
        try:
            return workload.check(out)
        except Exception:
            self._fail(workload, seed)
            return {}

    def expect(self, ok: bool, message: str) -> None:
        """Count one checked operation that is not a unit."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: {message}", file=sys.stderr)

    def _fail(self, workload, seed):
        self.failed += 1
        print(f"perfbench: {workload.name} unit seed={seed} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_once(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name} failed")
    return elapsed


def import_seconds(module: str) -> float:
    """Seconds `import <module>` takes in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def p90(samples: list) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def rate(records, key: str) -> float:
    return sum(c.get(key, 0) for _, c in records) / sum(t for t, _ in records)


def cli_medians(records) -> dict:
    return {f"cli_{c}_s": statistics.median(r["cli"][c] for _, r in records if "cli" in r)
            for c in CLI_NAMES}


def environment(seed, seconds, trace, workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": workload.inputs,
    }


def measure(w, sizes, seed: int, seconds: float, plan: Plan) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and the sample counts behind them."""
    import workloads as wl
    from qpcsim import cli

    setups = [setup_once(w.name, seed) for _ in range(plan.setup_reps)]
    ledger = Ledger()
    if plan.warm_up:
        warm = wl.WORKLOADS[w.name](wl.SMOKE_SIZES)
        ledger.unit(warm, cli.subseed(seed, "warm-up"))

    # A workload whose own units do not do some kind of work measures that
    # metric on a fixed number of companion units of a workload that does;
    # no workload runs the CLI in its loop, so every run has CLI units.  The
    # companion units are spread evenly over the timed loop rather than run
    # after it: machine speed on a shared host drifts by tens of percent over
    # tens of seconds, and interleaving lets every metric average over the
    # same stretch of it.  In-process companions allocate no more than the
    # workloads' own units (a 2,001-point grid is what analyze_trace scans),
    # so they leave peak_rss_mb to the workload.
    companions = {"captures": wl.ExposeAnalyze(sizes),
                  "gate_points": wl.GateSweep(wl.Sizes(sweep_points=2001)),
                  "cli": wl.CliCommands(OUT, child_env())}
    wanted = {kind: n for kind, n in plan.companion_units.items() if kind not in w.makes}
    schedule = sorted(((k + 0.5) / n, kind, k) for kind, n in wanted.items() for k in range(n))
    by_kind = {kind: [] for kind in wanted}

    def companion_unit(kind, k):
        companion = companions[kind]
        base = cli.subseed(seed, f"companion-{kind}")
        by_kind[kind].append(ledger.unit(companion, companion.unit_seed(base, k)))

    records = []
    start = time.perf_counter()
    aside = 0.0   # time spent on companion units, not counted against --seconds
    for i in itertools.count():
        records.append(ledger.unit(w, w.unit_seed(seed, i)))
        looped = time.perf_counter() - start - aside
        while schedule and looped >= seconds * schedule[0][0]:
            t0 = time.perf_counter()
            companion_unit(*schedule.pop(0)[1:])
            aside += time.perf_counter() - t0
        if looped >= seconds:
            break
    for _, kind, k in schedule:
        companion_unit(kind, k)

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux
    times = [t for t, _ in records]
    for kind in w.makes:
        by_kind[kind] = records
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss,
               "run_s_p50": statistics.median(times), "run_s_p90": p90(times)}
    metrics.update(cli_medians(by_kind["cli"]))
    samples = {"setup": len(setups), "units": len(records),
               "units_beyond_p90": sum(t > metrics["run_s_p90"] for t in times),
               **{f"companion_{kind}_units": len(by_kind[kind]) for kind in wanted}}
    metrics["captures_per_s"] = rate(by_kind["captures"], "captures")
    metrics["gate_points_per_s"] = rate(by_kind["gate_points"], "gate_points")
    return finish(ledger, metrics, END_TO_END), samples


def traced(w, seed: int, plan: Plan) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from spans, scaling series, overhead."""
    import numpy as np

    import workloads as wl
    from qpcsim import charge, cli, transport
    from spans import LAYER_FUNCTIONS, Tracer

    ledger = Ledger()
    metrics = {
        "cli.import_qpcsim_s": statistics.median(
            import_seconds("qpcsim") for _ in range(plan.import_reps)),
        "cli.import_scipy_optimize_s": statistics.median(
            import_seconds("scipy.optimize") for _ in range(plan.import_reps)),
    }
    if plan.warm_up:
        warm = wl.WORKLOADS[w.name](wl.SMOKE_SIZES)
        ledger.unit(warm, cli.subseed(seed, "warm-up"))

    tracer = Tracer()

    def under_trace(unit_id, run):
        def traced_run(unit_seed):
            with tracer.unit(unit_id):
                return run(unit_seed)
        return traced_run

    # each unit runs once untraced and once traced, the order alternating
    # from unit to unit so that neither side always runs first: the ratio of
    # the medians is the tracing overhead
    seeds = [w.unit_seed(seed, i) for i in range(plan.traced_units[w.name])]
    plain, spans_on = [], []
    for i, s in enumerate(seeds):
        sides = [(plain, None), (spans_on, under_trace(f"unit-{i}", w.run))]
        for times, runner in sides[::-1] if i % 2 else sides:
            times.append(ledger.unit(w, s, runner)[0])
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(spans_on) / statistics.median(plain) - 1.0)
    # one in-process pass of the four commands through qpcsim.cli.main, so
    # cli.main and every layer have spans on every workload
    commands = wl.CliCommands(OUT, child_env())
    ledger.unit(commands, cli.subseed(seed, "cli"),
                under_trace("cli", lambda s: commands.in_process(s, tracer)))

    totals = tracer.totals()

    def span(name):
        return totals.get(name, {"calls": 0, "count": 0, "self_s": 0.0})

    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.self_s"] = span(f"{layer}.{name}")["self_s"]
    for command in CLI_NAMES:
        metrics[f"cli.main.self_s.{command}"] = span(f"cli.main.{command}")["self_s"]
    for name in ("transport.conductance", "transport.transconductance"):
        metrics[f"{name}.calls"] = span(name)["calls"]
        metrics[f"{name}.points"] = span(name)["count"]
    capture = span("charge.capture_photon")
    metrics["charge.capture_photon.calls"] = capture["calls"]
    metrics["charge.capture_photon.useful_ratio"] = capture["count"] / max(capture["calls"], 1)
    metrics["simulate.trace_to_text.bytes"] = span("simulate.trace_to_text")["count"]
    metrics["analyze.steps_detected"] = span("analyze.detect_steps")["count"]

    device = transport.DeviceParams()
    for n, reps in CONDUCTANCE_SERIES.items():
        v = (device.threshold_voltage + 0.1 if n == 1 else
             np.linspace(device.threshold_voltage, device.threshold_voltage + 0.3, n))
        per_call = []
        for _ in range(max(1, int(reps * plan.series_scale))):
            start = time.perf_counter()
            transport.conductance(v, device)
            per_call.append(time.perf_counter() - start)
        metrics[f"transport.conductance.us_per_point.n{n}"] = (
            1e6 * statistics.median(per_call) / n)

    buffer_layer = charge.absorption_target(700.0)
    for n in CAPTURE_SERIES:
        per_capture = []
        for r in range(max(1, int(CAPTURE_SERIES_REPEATS * plan.series_scale))):
            tag = f"capture-{n}-{r}"
            ensemble = charge.build_ensemble(charge.TrapConfig(buffer_trap_count=n),
                                             cli.subseed(seed, tag))
            rng = np.random.default_rng(cli.subseed(seed, tag + "-rng"))
            start = time.perf_counter()
            for _ in range(plan.captures_per_series):
                charge.capture_photon(ensemble, buffer_layer, rng)
            per_capture.append((time.perf_counter() - start) / plan.captures_per_series)
            ledger.expect(ensemble.occupied_count == plan.captures_per_series,
                          f"{ensemble.occupied_count} of {n} buffer traps occupied after "
                          f"{plan.captures_per_series} captures")
        metrics[f"charge.capture_us.n{n}"] = 1e6 * statistics.median(per_capture)

    tracer.write(OUT / f"spans-{w.name}-seed{seed}.jsonl")
    samples = {"traced_units": len(seeds), "spans": len(tracer.spans),
               "import_reps": plan.import_reps,
               "captures_per_series": plan.captures_per_series}
    return finish(ledger, metrics, PER_LAYER), samples


def finish(ledger: Ledger, metrics: dict, expected: dict) -> dict:
    differ = set(expected) ^ set(metrics)
    if differ:
        raise RuntimeError(f"metric set differs from the declared one: {sorted(differ)}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": expected[k]} for k in expected},
    }


def run_one(name: str, seed: int, seconds: float, trace: int, plan: Plan) -> dict:
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    sizes = wl.SMOKE_SIZES if plan.smoke else wl.Sizes()
    w = wl.WORKLOADS[name](sizes)
    result, samples = (traced(w, seed, plan) if trace else
                       measure(w, sizes, seed, seconds, plan))
    env = environment(seed, seconds, trace, w)
    env["samples"] = samples
    suffix = "-smoke" if plan.smoke else ""
    (OUT / f"result-{name}-seed{seed}-trace{trace}{suffix}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    return result


def smoke() -> int:
    """Each workload once, small, untraced and traced; 0 when every check passes."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_one(name, 1, 0, trace, SMOKE_PLAN)
            print(json.dumps(result))
            ok = ok and result["correct"]
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def _load_package() -> None:
    """Import qpcsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "qpcsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qpcsim sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qpcsim

    if Path(qpcsim.__file__).resolve().parent != (SRC / "qpcsim").resolve():
        raise SystemExit(f"perfbench: imported qpcsim from {qpcsim.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at small size and check it")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    _load_package()
    if args.smoke:
        return smoke()
    if args.setup_probe:
        import workloads as wl

        wl.WORKLOADS[args.workload](wl.Sizes())
        print("ready", flush=True)
        return 0
    result = run_one(args.workload, args.seed, args.seconds, args.trace, Plan())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
