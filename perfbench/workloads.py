"""Workloads of the qpcsim benchmark: inputs, units and correctness checks.

A workload is a closed loop in one process: each unit starts when the
previous one returns.  `run` does a unit's work and is what the benchmark
times; `check` verifies the unit's outputs afterwards, untimed, and raises
`CheckFailed` when one is wrong.  The checks hold for any correct
implementation of the package, whatever random stream it draws: they test
invariants of the physics and of the file formats, never seeded values.

Every per-unit seed comes from the workload seed through
`qpcsim.cli.subseed`, so the same seed gives the same inputs.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import qpcsim
from qpcsim import analyze, cli, simulate, transport

REPORT_SECTIONS = ("[steps]", "[intervals]", "[fit]", "[correlation]", "[saturation]")

# metric suffix -> (command line after `qpcsim`, files the command must write)
CLI_COMMANDS = {
    "sweep": (("sweep",), ("sweep_trace.csv", "sweep_differential.csv")),
    "expose": (("expose",), ("exposure_trace.csv",)),
    "analyze": (("analyze", "{out}/exposure_trace.csv"), ("analysis_report.txt",)),
    "figures": (("reproduce-figures",), ("overlay_gate_photo.csv",
                                         "step_heights_vs_transconductance.csv",
                                         "photon_interval_histogram.csv")),
}


class CheckFailed(Exception):
    """A unit's output broke one of its workload's correctness checks."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes that differ between the benchmark and its smoke mode."""

    buffer_traps: int = 8000
    buffer_duration: float = 5400.0   # s
    sweep_points: int = 20001


SMOKE_SIZES = Sizes(buffer_traps=500, buffer_duration=600.0, sweep_points=2001)


def same_trace(a, b) -> bool:
    """True when two traces are bit-for-bit the same run."""
    return (a.axis_kind == b.axis_kind
            and a.times.tobytes() == b.times.tobytes()
            and a.conductance.tobytes() == b.conductance.tobytes()
            and a.truth_events == b.truth_events
            and a.config == b.config
            and a.photons_incident == b.photons_incident
            and a.photons_absorbed == b.photons_absorbed)


class Workload:
    name = ""
    # the rate metrics the workload's own units produce; run.py measures the
    # others on companion units of a workload that does that work
    makes: tuple[str, ...] = ()

    def unit_seed(self, seed: int, index: int) -> int:
        return cli.subseed(seed, f"unit-{index}")


def _expose(device, traps, source, exposure, seed):
    ensemble = qpcsim.build_ensemble(traps, cli.subseed(seed, "ensemble"))
    trace = qpcsim.simulate_exposure(
        device, ensemble, source, replace(exposure, seed=cli.subseed(seed, "exposure")))
    return ensemble, trace


class ExposeAnalyze(Workload):
    """The paper's headline experiment, from exposure to written report."""

    name = "expose-analyze-550"
    makes = ("captures",)

    def __init__(self, sizes: Sizes):
        self.device = qpcsim.DeviceParams()
        self.traps = qpcsim.TrapConfig()
        self.source = qpcsim.PhotonSource(wavelength=550.0)
        self.exposure = qpcsim.ExposureConfig(duration=5400.0, noise_sigma=0.005)
        self.inputs = {
            "dopant_traps": self.traps.dopant_trap_count,
            "buffer_traps": self.traps.buffer_trap_count,
            "wavelength_nm": self.source.wavelength,
            "duration_s": self.exposure.duration,
            "noise_sigma": self.exposure.noise_sigma,
        }

    def run(self, seed):
        ensemble, trace = _expose(self.device, self.traps, self.source, self.exposure, seed)
        back = simulate.trace_from_text(simulate.trace_to_text(trace))
        report = analyze.report_to_text(qpcsim.analyze_trace(back, device=self.device))
        return ensemble, trace, back, report

    def check(self, out) -> dict:
        ensemble, trace, back, report = out
        _require(trace.photons_captured == self.traps.dopant_trap_count,
                 f"{trace.photons_captured} captures, expected "
                 f"{self.traps.dopant_trap_count} at saturation")
        dopant = set(ensemble.dopant_couplings().tolist())
        _require(all(e.coupling in dopant for e in trace.truth_events),
                 "a captured coupling is not a dopant coupling")
        _require(same_trace(trace, back), "trace does not read back bit-exact")
        lines = set(report.splitlines())
        missing = [s for s in REPORT_SECTIONS if s not in lines]
        _require(not missing, f"report lacks sections {missing}")
        return {"captures": trace.photons_captured}


class Buffer700(Workload):
    """A long-wavelength run that fills thousands of buffer traps."""

    name = "buffer-700-saturate"
    makes = ("captures",)

    def __init__(self, sizes: Sizes):
        self.device = qpcsim.DeviceParams()
        self.traps = qpcsim.TrapConfig(buffer_trap_count=sizes.buffer_traps)
        self.source = qpcsim.PhotonSource(wavelength=700.0, incident_rate=6.0)
        self.exposure = qpcsim.ExposureConfig(duration=sizes.buffer_duration,
                                              noise_sigma=0.005)
        self.inputs = {
            "buffer_traps": self.traps.buffer_trap_count,
            "wavelength_nm": self.source.wavelength,
            "incident_rate": self.source.incident_rate,
            "duration_s": self.exposure.duration,
            "noise_sigma": self.exposure.noise_sigma,
        }

    def run(self, seed):
        _, trace = _expose(self.device, self.traps, self.source, self.exposure, seed)
        return trace, qpcsim.analyze_trace(trace, device=self.device)

    def check(self, out) -> dict:
        trace, _ = out
        _require(trace.photons_captured == self.traps.buffer_trap_count,
                 f"{trace.photons_captured} captures, expected "
                 f"{self.traps.buffer_trap_count} at saturation")
        scale = self.traps.buffer_coupling_scale
        _require(all(e.coupling <= scale for e in trace.truth_events),
                 "a captured coupling exceeds buffer_coupling_scale")
        return {"captures": trace.photons_captured}


class GateSweep(Workload):
    """A dense noisy gate sweep with its transconductance."""

    name = "gate-sweep-dense"
    makes = ("gate_points",)
    SPAN_V = 0.3
    NOISE = 0.005
    MODEL_STRIDE = 50   # the model-G bound is checked on every 50th point

    def __init__(self, sizes: Sizes):
        self.device = qpcsim.DeviceParams()
        self.v_start = self.device.threshold_voltage
        self.v_end = self.v_start + self.SPAN_V
        self.n_points = sizes.sweep_points
        self.inputs = {"points": self.n_points, "v_start": self.v_start,
                       "v_end": self.v_end, "noise_sigma": self.NOISE}

    def run(self, seed):
        trace = qpcsim.simulate_gate_sweep(self.device, self.v_start, self.v_end,
                                           self.n_points, self.NOISE,
                                           seed=cli.subseed(seed, "sweep"))
        dgdv = qpcsim.transconductance(trace.times, self.device)
        diff = qpcsim.differential_conductance(
            qpcsim.ConductanceCurve(transport.GATE_AXIS, trace.times, trace.conductance))
        return trace, dgdv, diff, simulate.trace_to_text(trace)

    def check(self, out) -> dict:
        trace, dgdv, diff, text = out
        n = self.n_points
        _require(trace.times.size == n and np.shape(dgdv) == (n,) and len(diff) == n,
                 "sweep outputs have the wrong length")
        model = np.asarray(qpcsim.conductance(trace.times[::self.MODEL_STRIDE], self.device))
        _require(np.all((model >= 0.0) & (model <= self.device.num_modes)),
                 "model G outside [0, num_modes]")
        _require(np.all(dgdv >= 0.0), "dG/dV < 0")
        _require(same_trace(trace, simulate.trace_from_text(text)),
                 "sweep trace does not read back bit-exact")
        return {"gate_points": n}


class CliCommands:
    """The four CLI commands, each a fresh `python -m qpcsim` process.

    Every run times a fixed number of these units, spread over its timed
    loop, so the `cli_*_s` metrics come with every workload.
    """

    name = "cli-commands"

    def __init__(self, work_dir: Path, env: dict):
        self.work_dir = work_dir
        self.env = env
        self._first_run: dict[int, dict] = {}

    def unit_seed(self, seed: int, index: int) -> int:
        # units come in pairs with one seed, so every second unit checks
        # that a rerun writes byte-identical files
        return cli.subseed(seed, f"unit-{index // 2}")

    def _argv(self, command: str, seed: int, out: Path) -> list[str]:
        words, _ = CLI_COMMANDS[command]
        return [w.format(out=out) for w in words] + ["--seed", str(seed), "--out", str(out)]

    def run(self, seed):
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        seconds, codes = {}, {}
        for command in CLI_COMMANDS:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "qpcsim", *self._argv(command, seed, out)],
                cwd=out, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            seconds[command] = time.perf_counter() - start
            codes[command] = (proc.returncode, proc.stderr.decode(errors="replace"))
        return seed, out, seconds, codes

    def in_process(self, seed, tracer):
        """The same unit through `qpcsim.cli.main` in this process, traced."""
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        seconds, codes = {}, {}
        for command in CLI_COMMANDS:
            start = time.perf_counter()
            with tracer.span(f"cli.main.{command}"), redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(command, seed, out))
            seconds[command] = time.perf_counter() - start
            codes[command] = (code, "")
        return seed, out, seconds, codes

    def check(self, out) -> dict:
        seed, out_dir, seconds, codes = out
        try:
            for command, (code, stderr) in codes.items():
                _require(code == 0, f"{command} exited with {code}: {stderr.strip()}")
            files = {}
            for _, names in CLI_COMMANDS.values():
                for name in names:
                    path = out_dir / name
                    _require(path.is_file(), f"{name} was not written")
                    files[name] = path.read_bytes()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        earlier = self._first_run.pop(seed, None)
        if earlier is None:
            self._first_run[seed] = files
        else:
            _require(earlier == files, "a rerun with the same seed is not byte-identical")
        return {"cli": seconds}


WORKLOADS = {w.name: w for w in (ExposeAnalyze, Buffer700, GateSweep)}
