import os
import stat

import numpy as np
import pytest

from qpcsim.charge import PhotonSource, TrapConfig
from qpcsim.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    serialize_config,
    subseed,
)
from qpcsim.simulate import ExposureConfig, read_trace
from qpcsim.transport import DeviceParams, conductance


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_roundtrip_identity():
    cfg = parse_config("")  # no text: every default
    assert cfg == RunConfig(DeviceParams(), TrapConfig(), PhotonSource(), ExposureConfig())
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrip_with_custom_values():
    text = "\n".join([
        "seed=42",
        "device.temperature=1.7",
        "device.lever_arm=80.0",
        "traps.buffer_trap_count=500",
        "source.wavelength=650.0",
        "exposure.duration=900.0",
        "device.anomaly_enabled=false",
        "analysis.window=8",
        "analysis.threshold=5.0",
    ])
    cfg = parse_config(text)
    assert cfg.seed == 42
    assert cfg.device.temperature == 1.7
    assert cfg.traps.buffer_trap_count == 500
    assert cfg.device.anomaly_enabled is False
    assert cfg.analysis.window == 8
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_rejects_unknown_and_malformed_keys():
    with pytest.raises(ConfigError):
        parse_config("device.unknown_knob=3")
    with pytest.raises(ConfigError, match="^line 1: unknown key 'traps.channel_capacitance'$"):
        parse_config("traps.channel_capacitance=1e-16")  # gone with the one property it fed
    with pytest.raises(ConfigError):
        parse_config("just a line")
    with pytest.raises(ConfigError, match="^device.temperature must be float, got 'warm'$"):
        parse_config("device.temperature=warm")
    # a bool is spelled true or false, as the writers spell it
    with pytest.raises(ConfigError, match="^device.anomaly_enabled must be bool, got 'yes'$"):
        parse_config("device.anomaly_enabled=yes")
    with pytest.raises(ConfigError, match="^device.anomaly_enabled must be bool, got 1$"):
        parse_config("device.anomaly_enabled=1")
    with pytest.raises(ConfigError):
        parse_config("exposure.seed=5")  # derived from the master seed
    with pytest.raises(ConfigError):
        parse_config("device.temperature=-4.0")  # fails validation


def test_serialized_config_lists_every_setting():
    # a new setting shows here as a visible change
    text = serialize_config(parse_config(""))
    assert [line.partition("=")[0] for line in text.splitlines()] == [
        "seed",
        "analysis.window", "analysis.threshold", "analysis.bin_width",
        "device.fermi_energy", "device.temperature", "device.mode_spacing",
        "device.tunnel_width", "device.lever_arm", "device.threshold_voltage",
        "device.num_modes", "device.anomaly_enabled", "device.anomaly_weight",
        "device.anomaly_split",
        "traps.carrier_density", "traps.active_area", "traps.saturation_gate_shift",
        "traps.buffer_trap_count", "traps.buffer_coupling_scale",
        "source.wavelength", "source.incident_rate", "source.quantum_efficiency",
        "exposure.duration", "exposure.sample_interval", "exposure.dark_lead",
        "exposure.gate_bias", "exposure.noise_sigma",
    ]


@pytest.mark.parametrize("line", ["traps.coupling_distribution=constant",
                                  "exposure.barrier_includes_buffer=false",
                                  "device.source_drain_bias=0.5"])
def test_removed_setting_exits_2_as_an_unknown_key(tmp_path, capsys, line):
    # settings the simulator no longer has: one trap population per layer,
    # exponential couplings, linear response
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["expose", "--config", str(cfg), "--out", str(out)]) == 2
    key = line.partition("=")[0]
    assert capsys.readouterr().err == f"qpcsim: config error: line 1: unknown key {key!r}\n"
    assert not out.exists()


def test_subseed_is_stable_and_tag_dependent():
    assert subseed(1, "ensemble") == subseed(1, "ensemble")
    assert subseed(1, "ensemble") != subseed(1, "exposure")
    assert subseed(1, "ensemble") != subseed(2, "ensemble")


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_default_contains_first_plateau(tmp_path):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    trace = read_trace(tmp_path / "sweep_trace.csv")
    assert np.abs(trace.conductance - 1.0).min() <= 0.02
    assert (tmp_path / "sweep_differential.csv").exists()


def test_sweep_two_points(tmp_path):
    assert main(["sweep", "--out", str(tmp_path), "--n-points", "2"]) == 0
    trace = read_trace(tmp_path / "sweep_trace.csv")
    assert len(trace.times) == 2


def test_sweep_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--out", str(out1), "--noise", "0.004"]) == 0
    assert main(["sweep", "--out", str(out2), "--noise", "0.004"]) == 0
    assert (out1 / "sweep_trace.csv").read_bytes() == \
           (out2 / "sweep_trace.csv").read_bytes()
    assert (out1 / "sweep_differential.csv").read_bytes() == \
           (out2 / "sweep_differential.csv").read_bytes()


def test_sweep_invalid_range_exits_2(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path),
                 "--v-start", "-1.3", "--v-end", "-1.5"])
    assert code == 2
    assert "v_start" in capsys.readouterr().err


@pytest.mark.parametrize("flags,name", [
    (["--n-points", "100000000000"], "n_points"),
    (["--v-end", "inf"], "v_end"),
    (["--v-start=-inf"], "v_start"),
    (["--v-start", "nan"], "v_start"),
])
def test_sweep_oversized_or_non_finite_exits_2_naming_it(tmp_path, capsys, flags, name):
    # 10^11 points is rejected before anything is allocated; an infinite end
    # before np.linspace warns
    out = tmp_path / "out"
    assert main(["sweep", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qpcsim: invalid input: ") and name in err
    assert "Warning" not in err and not out.exists()


def test_outputs_get_the_mode_the_umask_leaves(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["sweep", "--out", str(tmp_path), "--n-points", "41"]) == 0
        assert main(["expose", "--out", str(tmp_path), "--duration", "60"]) == 0
        assert main(["analyze", str(tmp_path / "exposure_trace.csv"), "--out", str(tmp_path)]) == 0
        assert main(["reproduce-figures", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["analysis_report.txt", "exposure_trace.csv", "overlay_gate_photo.csv",
                       "photon_interval_histogram.csv", "step_heights_vs_transconductance.csv",
                       "sweep_differential.csv", "sweep_trace.csv"]  # no temp file left
    assert {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in written} \
        == dict.fromkeys(written, 0o644)


def test_sweep_unwritable_path_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["sweep", "--out", str(blocker / "sub")])
    assert code == 3


# ---------------------------------------------------------------------------
# expose command
# ---------------------------------------------------------------------------

def test_expose_at_700nm_fills_only_buffer_traps(tmp_path):
    assert main(["expose", "--out", str(tmp_path), "--wavelength", "700",
                 "--duration", "3000"]) == 0
    trace = read_trace(tmp_path / "exposure_trace.csv")
    assert trace.truth_events, "buffer captures expected at 700 nm"
    scale = TrapConfig().buffer_coupling_scale
    assert all(e.coupling <= scale for e in trace.truth_events)


def test_expose_below_gap_creates_no_events(tmp_path):
    assert main(["expose", "--out", str(tmp_path), "--wavelength", "1000"]) == 0
    trace = read_trace(tmp_path / "exposure_trace.csv")
    assert trace.truth_events == []
    assert trace.photons_absorbed == 0
    assert np.ptp(trace.conductance) < 0.05  # noise only


def test_expose_tiny_duration_still_valid(tmp_path):
    assert main(["expose", "--out", str(tmp_path), "--duration", "0.001"]) == 0
    trace = read_trace(tmp_path / "exposure_trace.csv")
    assert trace.photons_captured == 0
    assert trace.times.size >= 1


def test_expose_and_analyze_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["expose", "--out", str(out), "--duration", "1200"]) == 0
        assert main(["analyze", str(out / "exposure_trace.csv"),
                     "--out", str(out)]) == 0
    assert (out1 / "exposure_trace.csv").read_bytes() == \
           (out2 / "exposure_trace.csv").read_bytes()
    assert (out1 / "analysis_report.txt").read_bytes() == \
           (out2 / "analysis_report.txt").read_bytes()


def test_expose_seed_changes_trace(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["expose", "--out", str(out1), "--duration", "1200"]) == 0
    assert main(["expose", "--out", str(out2), "--duration", "1200",
                 "--seed", "2"]) == 0
    assert (out1 / "exposure_trace.csv").read_bytes() != \
           (out2 / "exposure_trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# analyze command
# ---------------------------------------------------------------------------

def test_analyze_full_run_writes_report(tmp_path):
    assert main(["expose", "--out", str(tmp_path)]) == 0
    assert main(["analyze", str(tmp_path / "exposure_trace.csv"),
                 "--out", str(tmp_path)]) == 0
    report = (tmp_path / "analysis_report.txt").read_text()
    assert "[steps]" in report and "[saturation]" in report
    saturation_row = report.splitlines()[-1]
    flag, count, _ = saturation_row.split(",")
    assert flag == "true"
    assert int(count) > 0


def test_analyze_dark_trace_reports_zero_steps(tmp_path):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("source.incident_rate=0.0\nexposure.duration=2000.0\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["analyze", str(tmp_path / "exposure_trace.csv"),
                 "--out", str(tmp_path), "--threshold", "5"]) == 0
    report = (tmp_path / "analysis_report.txt").read_text()
    steps_section = report.split("[steps]")[1].split("[intervals]")[0]
    assert len(steps_section.strip().splitlines()) == 1  # header only


def test_analyze_sweep_file_is_wrong_axis(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    code = main(["analyze", str(tmp_path / "sweep_trace.csv"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "time-axis" in capsys.readouterr().err


def test_analyze_missing_file_exits_3(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 3


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("device.bogus=1\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_nonpositive_lever_arm_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("device.lever_arm=0\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "lever_arm" in capsys.readouterr().err


def test_analyze_nan_sample_exits_2(tmp_path, capsys):
    assert main(["expose", "--out", str(tmp_path), "--duration", "60"]) == 0
    path = tmp_path / "exposure_trace.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0.0,"))
    lines[row] = "0.0,nan"
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "analysis_report.txt").exists()


# ---------------------------------------------------------------------------
# reproduce-figures command
# ---------------------------------------------------------------------------

def test_figures_noiseless_overlay_and_fit(tmp_path):
    assert main(["reproduce-figures", "--out", str(tmp_path),
                 "--noise", "0"]) == 0
    overlay = (tmp_path / "overlay_gate_photo.csv").read_text().splitlines()
    assert overlay[1] == "series,gate_voltage_V,conductance_G0"
    device = DeviceParams()
    photo = [(float(v), float(g)) for line in overlay[2:]
             for s, v, g in [line.split(",")] if s == "photo_remap"]
    # one staircase level per sampled shift (captures inside one sample tick
    # can hide a level), plus the dark level
    assert 90 <= len(photo) <= 100
    volts = np.array([p[0] for p in photo])
    values = np.array([p[1] for p in photo])
    assert values[-1] > 1.9  # the remap climbs to the second plateau
    assert np.abs(values - np.asarray(conductance(volts, device))).max() <= 0.05

    corr = (tmp_path / "step_heights_vs_transconductance.csv").read_text()
    assert "[transconductance]" in corr and "[steps]" in corr
    steps_rows = corr.split("[steps]")[1].strip().splitlines()[1:]
    assert len(steps_rows) > 10

    hist = (tmp_path / "photon_interval_histogram.csv").read_text().splitlines()
    header = {line.split("=")[0][2:]: float(line.split("=")[1])
              for line in hist if line.startswith("# ") and "=" in line}
    assert abs(header["fit_mean_interval_s"] - header["configured_mean_interval_s"]) \
        <= 0.10 * header["configured_mean_interval_s"]
    rows = [line for line in hist if line and not line.startswith("#")
            and "," in line and not line.startswith("bin_")]
    assert sum(int(r.split(",")[1]) for r in rows) == 98  # 99 events -> 98 gaps


def test_figures_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["reproduce-figures", "--out", str(out)]) == 0
    for name in ("overlay_gate_photo.csv", "step_heights_vs_transconductance.csv",
                 "photon_interval_histogram.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("line", ["device.temperature=nan", "exposure.duration=inf",
                                  "exposure.sample_interval=1e-12",
                                  "analysis.window=1",
                                  "analysis.threshold=nan",
                                  "analysis.bin_width=-1"])
def test_non_finite_or_oversized_config_exits_2(tmp_path, capsys, line):
    # each used to get past the config: an all-NaN trace, an OverflowError
    # (exit 1) in the photon draw, a failed multi-petabyte allocation, and
    # analysis settings that `expose` never used
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    section, _, name = line.partition("=")[0].partition(".")
    assert "config error" in err and f"{section}: " in err and name in err
    assert not (tmp_path / "exposure_trace.csv").exists()


def test_non_finite_flag_exits_2(tmp_path, capsys):
    assert main(["expose", "--out", str(tmp_path), "--duration", "inf"]) == 2
    assert "duration must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags that set a config value: each is that key as one more config line
# ---------------------------------------------------------------------------

FLAG_KEYS = {
    "--seed": "seed",
    "--wavelength": "source.wavelength",
    "--duration": "exposure.duration",
    "--noise": "exposure.noise_sigma",  # of expose and reproduce-figures
    "--window": "analysis.window",
    "--threshold": "analysis.threshold",
    "--bin-width": "analysis.bin_width",
}

# a short exposure keeps every run fast; --duration overrides it
BASE_CONFIG = "exposure.duration=1200.0\n"


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("short")
    cfg = out / "base.cfg"
    cfg.write_text(BASE_CONFIG)
    assert main(["expose", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "exposure_trace.csv"


def run_with(run_dir, command, trace, config_text, flags=()):
    """Run `command` on a config file holding `config_text`.

    Returns the exit code and {file name: bytes} of what it wrote.
    """
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(config_text)
    out = run_dir / "out"
    positional = [str(trace)] if command == "analyze" else []
    code = main([command, *positional, "--config", str(cfg), "--out", str(out),
                 *flags])
    written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, written


@pytest.mark.parametrize("command,flag,value", [
    ("expose", "--seed", "3"),
    ("expose", "--wavelength", "700"),
    ("expose", "--duration", "300"),
    ("expose", "--noise", "0.01"),
    ("reproduce-figures", "--noise", "0"),
    ("analyze", "--seed", "3"),
    ("analyze", "--window", "8"),
    ("analyze", "--threshold", "5"),
    ("analyze", "--bin-width", "7.5"),
])
def test_flag_writes_the_same_files_as_its_config_line(tmp_path, short_trace,
                                                        command, flag, value):
    line = f"{FLAG_KEYS[flag]}={value}\n"
    code, by_flag = run_with(tmp_path / "flag", command, short_trace, BASE_CONFIG,
                             [flag, value])
    assert code == 0
    code, by_line = run_with(tmp_path / "line", command, short_trace,
                             BASE_CONFIG + line)
    assert code == 0
    assert by_flag == by_line
    if flag != "--seed":  # analyze's output does not depend on the seed
        code, by_base = run_with(tmp_path / "base", command, short_trace, BASE_CONFIG)
        assert by_base != by_flag


def test_all_flags_together_write_the_same_files_as_their_config_lines(
        tmp_path, short_trace):
    runs = {
        "expose": ["--seed", "3", "--wavelength", "600", "--duration", "900",
                   "--noise", "0.01"],
        "analyze": ["--seed", "3", "--window", "8", "--threshold", "5",
                    "--bin-width", "7.5"],
        "reproduce-figures": ["--seed", "3", "--noise", "0"],
    }
    for command, flags in runs.items():
        lines = "".join(f"{FLAG_KEYS[flag]}={value}\n"
                        for flag, value in zip(flags[::2], flags[1::2]))
        # the flags go on a new line even when the file's last line has no newline
        _, by_flag = run_with(tmp_path / command / "flag", command, short_trace,
                              BASE_CONFIG.rstrip("\n"), flags)
        _, by_line = run_with(tmp_path / command / "line", command, short_trace,
                              BASE_CONFIG + lines)
        assert by_flag and by_flag == by_line, command


@pytest.mark.parametrize("command,flag,value", [
    ("expose", "--wavelength", "nan"),
    ("expose", "--wavelength", "-5"),
    ("expose", "--duration", "inf"),
    ("expose", "--noise", "-0.1"),
    ("reproduce-figures", "--noise", "nan"),
    ("analyze", "--window", "1"),
    ("analyze", "--threshold", "nan"),
    ("analyze", "--threshold", "-5"),  # exited 0 with every local maximum a step
    ("analyze", "--threshold", "0"),
    ("analyze", "--bin-width", "inf"),
    ("analyze", "--bin-width", "nan"),
    ("analyze", "--bin-width", "-1"),
    ("analyze", "--bin-width", "1e-9"),  # over MAX_SAMPLES bins: exited 1 on a TiB array
])
def test_bad_flag_or_config_value_exits_2_naming_the_key(tmp_path, short_trace, capsys,
                                                         command, flag, value):
    key = FLAG_KEYS[flag]
    name = key.partition(".")[2]
    for run_dir, config_text, flags in ((tmp_path / "flag", BASE_CONFIG, [flag, value]),
                                        (tmp_path / "line", BASE_CONFIG + f"{key}={value}\n", [])):
        code, written = run_with(run_dir, command, short_trace, config_text, flags)
        err = capsys.readouterr().err
        assert code == 2 and name in err and written == {}


def test_figures_bin_width_over_the_bin_cap_exits_2_naming_it(tmp_path, short_trace, capsys):
    # reproduce-figures has no --bin-width flag, so the setting comes from its config
    code, written = run_with(tmp_path / "run", "reproduce-figures", short_trace,
                             BASE_CONFIG + "analysis.bin_width=1e-9\n")
    err = capsys.readouterr().err
    assert code == 2 and written == {}
    assert err.startswith("qpcsim: invalid input: bin_width 1e-09 needs over 10000000")


def test_bad_seed_exits_2_naming_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expose", "--out", str(tmp_path), "--seed", "1.5"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=1.5\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "exposure_trace.csv").exists()


def test_flag_error_is_reported_as_a_config_error(tmp_path, capsys):
    assert main(["expose", "--out", str(tmp_path), "--duration", "inf"]) == 2
    assert capsys.readouterr().err == \
        "qpcsim: config error: exposure: duration must be finite, got inf\n"


def test_sweep_non_finite_noise_exits_2(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path), "--noise", "nan"]) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_overflowing_dopant_count_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("traps.carrier_density=1e300\ntraps.active_area=1e10\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "carrier_density" in err and "active_area" in err
    assert not (tmp_path / "exposure_trace.csv").exists()


def test_oversized_trap_count_exits_2_naming_the_total(tmp_path, capsys):
    # used to exit 1 with a failed ~745 GiB allocation in build_ensemble
    cfg = tmp_path / "big.cfg"
    cfg.write_text("traps.buffer_trap_count=100000000000\n")
    out = tmp_path / "out"
    assert main(["expose", "--config", str(cfg), "--out", str(out)]) == 2
    assert "trap count must be <= 10000000, got 100000000099" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_second_events_section_exits_2(tmp_path, short_trace, capsys):
    lines = short_trace.read_text().splitlines()
    start = lines.index("events")
    events = lines[start:start + 3]  # title, column line, one capture
    path = tmp_path / "two_sections.csv"
    path.write_text("\n".join(lines[:start] + events + events) + "\n")
    assert main(["analyze", str(path), "--out", str(tmp_path)]) == 2
    assert "events section" in capsys.readouterr().err
    assert not (tmp_path / "analysis_report.txt").exists()


@pytest.mark.parametrize("edit", ["swap", "nan"])
def test_analyze_unordered_or_nan_event_times_exit_2(tmp_path, short_trace, capsys, edit):
    # both were read back, and the gate-equivalence map dropped a capture
    lines = short_trace.read_text().splitlines()
    first = lines.index("events") + 2
    if edit == "swap":
        lines[first:first + 2] = lines[first + 1], lines[first]
    else:
        lines.insert(first, "nan,-0.5")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    assert "events section: times must be finite and non-decreasing" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unknown_section_exits_2_naming_the_line(tmp_path, short_trace, capsys):
    lines = short_trace.read_text().splitlines()
    start = lines.index("events")
    path = tmp_path / "stray_title.csv"
    path.write_text("\n".join(lines[:start] + ["[steps]"] + lines[start:]) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {start + 1}:" in err and "'[steps]'" in err
    assert not out.exists()


def test_analyze_bad_bin_width_on_a_dark_trace_exits_2(tmp_path, capsys):
    # too few events to histogram: the setting is checked all the same
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("source.incident_rate=0.0\nexposure.duration=300.0\n")
    assert main(["expose", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    for value in ("nan", "-1", "inf"):
        assert main(["analyze", str(tmp_path / "exposure_trace.csv"), "--bin-width",
                     value, "--out", str(out)]) == 2
        assert "bin_width" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("device_anomaly_enabled", "False"),  # not the writer's `false`: a string
    ("device_anomaly_enabled", "no"),
    ("device_anomaly_enabled", "1"),
    ("device_num_modes", "2.5"),
    ("device_num_modes", "true"),
    ("device_temperature", "true"),
    ("photons_incident", "-7"),
    ("photons_absorbed", "-1"),
    ("photons_incident", "7.9"),
    ("photons_absorbed", "true"),
    ("initial_gate_shift", "true"),
    ("initial_gate_shift", "abc"),
    ("axis", "sideways"),
])
def test_analyze_mistyped_trace_header_exits_2_naming_the_key(tmp_path, short_trace,
                                                              capsys, key, value):
    lines = short_trace.read_text().splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith(f"# {key}=")]
    assert len(at) == 1
    lines[at[0]] = f"# {key}={value}"
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_names_a_missing_device_key(tmp_path, short_trace, capsys):
    lines = short_trace.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("# device_lever_arm=")]
    assert len(kept) == len(lines) - 1
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(kept) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "qpcsim: invalid input: trace header lacks device_lever_arm\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "expose", "analyze", "reproduce-figures"])
def test_num_modes_over_the_cap_exits_2_naming_it(tmp_path, short_trace, capsys, command):
    # read with the config, before anything is drawn or written
    code, written = run_with(tmp_path / "run", command, short_trace,
                             BASE_CONFIG + "device.num_modes=65\n")
    assert code == 2 and written == {}
    assert capsys.readouterr().err == ("qpcsim: config error: device: num_modes must be "
                                       "in [1, 64], got 65\n")


def test_analyze_checks_num_modes_before_detecting_steps(tmp_path, capsys):
    # a 900 nm run absorbs nothing, so its trace has no steps and the model
    # grid is never built; 65 modes in its header are refused all the same
    assert main(["expose", "--wavelength", "900", "--duration", "300",
                 "--out", str(tmp_path)]) == 0
    trace = tmp_path / "exposure_trace.csv"
    text = trace.read_text()
    assert "# device_num_modes=5\n" in text
    trace.write_text(text.replace("# device_num_modes=5\n", "# device_num_modes=65\n"))
    out = tmp_path / "out"
    assert main(["analyze", str(trace), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("qpcsim: invalid input: num_modes must be in [1, 64], "
                                       "got 65\n")
    assert not out.exists()


def test_trace_with_removed_header_keys_reads_and_analyzes_the_same(tmp_path, short_trace):
    # traces written while the simulator had two more settings carry their
    # header lines; they stay in `config` and change nothing else
    text = short_trace.read_text()
    old_text = text.replace("# axis=exposure-time\n",
                            "# axis=exposure-time\n# barrier_includes_buffer=false\n")
    old_text = old_text.replace("# device_temperature=",
                                "# device_source_drain_bias=0.5\n# device_temperature=")
    assert len(old_text.splitlines()) == len(text.splitlines()) + 2
    old = tmp_path / "old_trace.csv"
    old.write_text(old_text)
    assert read_trace(old).config == {**read_trace(short_trace).config,
                                      "barrier_includes_buffer": False,
                                      "device_source_drain_bias": 0.5}
    reports = []
    for trace in (short_trace, old):
        out = tmp_path / trace.stem
        assert main(["analyze", str(trace), "--out", str(out)]) == 0
        reports.append((out / "analysis_report.txt").read_bytes())
    assert reports[0] == reports[1]


def test_expose_caps_the_expected_photon_count(tmp_path, capsys):
    # 5.4e12 expected photons: rejected before a single gap is drawn
    cfg = tmp_path / "bright.cfg"
    cfg.write_text("source.incident_rate=1e9\n")
    out = tmp_path / "out"
    assert main(["expose", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "incident_rate * duration must be <= 10000000" in err
    assert not out.exists()
