"""Command-line driver: sweep, expose, analyze, reproduce-figures.

Configuration is a flat key=value text file with section prefixes
(device., traps., source., exposure., analysis.) plus a top-level
`seed`.  Every random quantity in a command derives from that master
seed: component RNGs are seeded with the first 8 bytes (big-endian) of
sha256("<seed>:<tag>"), with tags "ensemble", "exposure" and "sweep".
Rerunning a command with the same config and seed rewrites byte-identical
files; output files are written atomically (temp file + rename).  A flag
that sets a config value (--seed, --wavelength, --duration, the --noise of
expose and reproduce-figures, --window, --threshold, --bin-width) is read
as one more key=value line after the config file's text.  Every value is
read by the rule trace headers use, `simulate.typed` over `_parse_value`.

Exit codes: 0 success, 2 configuration/usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analyze import AnalysisConfig, analyze_trace, interval_statistics, report_to_text
from .charge import PhotonSource, TrapConfig, build_ensemble
from .simulate import (
    ExposureConfig,
    _parse_value,
    csv_text,
    exposure_to_gate_equivalence,
    fmt,
    read_trace,
    simulate_exposure,
    simulate_gate_sweep,
    trace_to_text,
    typed,
)
from .transport import (
    GATE_AXIS,
    DeviceParams,
    Trace,
    differential_conductance,
    transconductance,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

DEFAULT_SWEEP_SPAN = 0.3     # V above threshold covered by the default sweep
DEFAULT_SWEEP_POINTS = 601


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    device: DeviceParams
    traps: TrapConfig
    source: PhotonSource
    exposure: ExposureConfig
    analysis: AnalysisConfig = AnalysisConfig()
    seed: int = 1


def subseed(master: int, tag: str) -> int:
    """Stable per-component seed derived from the master seed."""
    digest = hashlib.sha256(f"{master}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# config file parsing / serialization
# ---------------------------------------------------------------------------

_SECTIONS = {
    "analysis": AnalysisConfig,
    "device": DeviceParams,
    "traps": TrapConfig,
    "source": PhotonSource,
    "exposure": ExposureConfig,
}

# exposure.seed is derived from the master seed at run time, never configured
_HIDDEN = {("exposure", "seed")}


def parse_config(text: str) -> RunConfig:
    section_values: dict[str, dict] = {name: {} for name in _SECTIONS}
    seed = 1
    hints = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), _parse_value(value.strip())
            if key == "seed":
                seed = typed(key, value, int)
                continue
            prefix, _, name = key.partition(".")
            if prefix not in _SECTIONS or name not in hints[prefix]:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if (prefix, name) in _HIDDEN:
                raise ConfigError(f"line {lineno}: {key!r} is derived from the master seed")
            section_values[prefix][name] = typed(key, value, hints[prefix][name])
    except ValueError as exc:  # a value of the wrong type
        raise ConfigError(str(exc)) from exc

    built = {}
    for name, cls in _SECTIONS.items():
        try:
            built[name] = cls(**section_values[name])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return RunConfig(seed=seed, **built)


def serialize_config(cfg: RunConfig) -> str:
    items = [("seed", cfg.seed)] + [
        (f"{name}.{f.name}", getattr(getattr(cfg, name), f.name))
        for name, cls in _SECTIONS.items() for f in fields(cls)
        if (name, f.name) not in _HIDDEN]
    return "".join(f"{key}={fmt(value)}\n" for key, value in items)


def _read_config(path) -> str:
    """The config file's text, or no text (every default) without a file."""
    return "" if path is None else Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    """Write `text` to a new temp file beside `path`, then rename it to `path`.
    The temp file is created with mode 0o666, as `open` creates a file, so the
    umask sets the mode `path` ends up with."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# commands: each takes the run config and the parsed arguments, and returns
# the paths it wrote
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    device = cfg.device
    v_start = device.threshold_voltage if args.v_start is None else args.v_start
    v_end = device.threshold_voltage + DEFAULT_SWEEP_SPAN if args.v_end is None else args.v_end
    trace = simulate_gate_sweep(device, v_start, v_end, args.n_points, args.noise,
                                seed=subseed(cfg.seed, "sweep"))
    trace_path = args.out / "sweep_trace.csv"
    _atomic_write(trace_path, trace_to_text(trace))
    written = [trace_path]
    if args.n_points >= 3:  # finite differences need interior points
        dgdv = differential_conductance(trace)
        dgdv_path = args.out / "sweep_differential.csv"
        _atomic_write(dgdv_path, csv_text(
            "qpcsim curve v1",
            {"axis": GATE_AXIS, "n_points": args.n_points, "noise_sigma": args.noise},
            (None, "gate_voltage_V,dG_dVg_G0_per_V", (dgdv.times, dgdv.conductance))))
        written.append(dgdv_path)
    return written


def _run_exposure(cfg: RunConfig) -> Trace:
    exposure = replace(cfg.exposure, seed=subseed(cfg.seed, "exposure"))
    ensemble = build_ensemble(cfg.traps, subseed(cfg.seed, "ensemble"))
    return simulate_exposure(cfg.device, ensemble, cfg.source, exposure)


def cmd_expose(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    path = args.out / "exposure_trace.csv"
    _atomic_write(path, trace_to_text(_run_exposure(cfg)))
    return [path]


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    report = analyze_trace(read_trace(args.trace), config=cfg.analysis)
    path = args.out / "analysis_report.txt"
    _atomic_write(path, report_to_text(report))
    return [path]


def cmd_reproduce_figures(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    """Emit plot-ready data: gate/photo overlay, height-vs-transconductance,
    photon interval histogram with its exponential fit.

    Everything is computed before the first file is written, so a bad
    setting leaves no partial output."""
    device = cfg.device
    v0 = device.threshold_voltage
    gate_curve = simulate_gate_sweep(device, v0, v0 + DEFAULT_SWEEP_SPAN, DEFAULT_SWEEP_POINTS)
    trace = _run_exposure(cfg)
    remap = exposure_to_gate_equivalence(trace)
    report = analyze_trace(trace, device, cfg.analysis)

    # interval statistics from the run's event log (model ground truth);
    # the detector's version of the same quantities lives in the report
    header = {}
    if cfg.source.detected_rate > 0:
        header["configured_mean_interval_s"] = 1.0 / cfg.source.detected_rate
    fit, histogram = interval_statistics(trace.events[:, 0], cfg.analysis.bin_width)
    if fit is not None:
        header.update(fit_mean_interval_s=fit.mean_interval, fit_rate_per_s=fit.rate,
                      ks_statistic=fit.ks_statistic)

    files = {
        "overlay_gate_photo.csv": csv_text(
            "qpcsim figure: gate-driven vs photo-driven conductance", {},
            (None, "series,gate_voltage_V,conductance_G0",
             (["gate_sweep"] * len(gate_curve) + ["photo_remap"] * len(remap),
              np.concatenate([gate_curve.times, remap.times]),
              np.concatenate([gate_curve.conductance, remap.conductance])))),
        "step_heights_vs_transconductance.csv": csv_text(
            "qpcsim figure: step height vs model transconductance", {},
            ("[transconductance]", "gate_voltage_V,dG_dVg_G0_per_V",
             (gate_curve.times, transconductance(gate_curve.times, device))),
            ("[steps]", "time_s,height_G0,transconductance_G0_per_V",
             (*report.steps[:, :2].T, report.transconductances))),
        "photon_interval_histogram.csv": csv_text(
            "qpcsim figure: photon inter-arrival histogram", header,
            (None, "bin_start_s,count", histogram)),
    }
    for name, text in files.items():
        _atomic_write(args.out / name, text)
    return [args.out / name for name in files]


# ---------------------------------------------------------------------------
# argument parsing: a flag that sets a config value has that key ("seed" or
# "section.field") as its dest
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcsim",
        description="Point-contact single-photon detector: simulate and analyze "
                    "conductance traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        return p

    p = command("sweep", cmd_sweep, "gate-voltage sweep of the channel conductance")
    p.add_argument("--v-start", type=float)
    p.add_argument("--v-end", type=float)
    p.add_argument("--n-points", type=int, default=DEFAULT_SWEEP_POINTS)
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive conductance noise sigma")

    p = command("expose", cmd_expose, "fixed-bias photon exposure run")
    p.add_argument("--wavelength", dest="source.wavelength", type=float, help="nm")
    p.add_argument("--duration", dest="exposure.duration", type=float,
                   help="seconds of illumination")
    p.add_argument("--noise", dest="exposure.noise_sigma", type=float,
                   help="conductance noise sigma")

    p = command("analyze", cmd_analyze, "detect steps and fit statistics in a trace")
    p.add_argument("trace", type=Path, help="trace file produced by expose")
    p.add_argument("--window", dest="analysis.window", type=int,
                   help="detector window, samples")
    p.add_argument("--threshold", dest="analysis.threshold", type=float,
                   help="detection threshold, noise SEs")
    p.add_argument("--bin-width", dest="analysis.bin_width", type=float,
                   help="interval histogram bin, seconds")

    p = command("reproduce-figures", cmd_reproduce_figures,
                "emit plot-ready overlay/correlation/histogram data")
    p.add_argument("--noise", dest="exposure.noise_sigma", type=float,
                   help="conductance noise sigma")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = "".join(f"{key}={fmt(value)}\n" for key, value in vars(args).items()
                        if value is not None and (key == "seed" or "." in key))
    try:
        cfg = parse_config(_read_config(args.config) + "\n" + overrides)
        written = args.run(cfg, args)
    except ConfigError as exc:
        print(f"qpcsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"qpcsim: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"qpcsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
