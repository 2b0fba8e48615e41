"""The bytes of every default CLI output, pinned by SHA-256.

For seeds 1, 3 and 57, `sweep`, `expose`, `analyze` (on that exposure) and
`reproduce-figures` run with no config file, and the seven files they write
must hash to the digests below.  So must the two files of the 700 nm path:
`expose --wavelength 700` with `traps.buffer_trap_count=8000` and
`source.incident_rate=6.0` in a config file, then `analyze`.  A change that
moves output bytes updates these digests and says so in CHANGES.md.

numpy's `exp`, `cosh` and `log` give different last bits on different SIMD
tiers, so one digest set is kept per numpy version and per enabled state of
the AVX-512 features; the AVX2 set is the run with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  Where no set
matches the running numpy, the test skips and says why.  On an AVX-512 host
a second test reruns it in a subprocess under that variable, so one run
checks both sets.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpcsim

from qpcsim.cli import main

TIER_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _tier() -> tuple[str, tuple[bool, ...]]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return np.__version__, tuple(bool(features.get(name)) for name in TIER_FEATURES)


AVX512 = ("2.4.6", (True, True, True))
AVX2 = ("2.4.6", (False, False, False))

# {tier: {seed: {file name: sha256}}}
DIGESTS = {
    AVX512: {
        1: {
            "analysis_report.txt":
                "ac3b89c584de9e275d59df1cc38941fad43725abc9c3d3e9514d1d20ab953611",
            "exposure_trace.csv":
                "59dda836dd4ae088c00c5930982916c247e748ac3bac9e5bc500fd66ea26480c",
            "overlay_gate_photo.csv":
                "947b0252261cd5dff05e2595860b09ff6b628d7dd8a1a75a23305602e7e5911b",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "9623e1d3a99b4f8adb3f5ba21b00bae1e566d9d2d16f3e503c9675bbd2caa8aa",
            "sweep_differential.csv":
                "fc945b2f5797c0c0c4990ac4091d82a19f3b6d120ceef06d6cb3089e905fb5f3",
            "sweep_trace.csv":
                "b9ba1424a71e9b5171095bbfc52e2c27610a0325a581bc1b09ca10eaa99406e2",
        },
        3: {
            "analysis_report.txt":
                "c4523ad64e74e548c16e43cf9e52dc0eacef1525510e14ffa901383babeb57d6",
            "exposure_trace.csv":
                "7833a6ee754a078478ce868d6adeec4ff5bfe6a483ac0b1f7fac60488eada868",
            "overlay_gate_photo.csv":
                "d1dfd5816e027317d49de9e5d0f81e7dcc4b81337d91f717927cef46bbdb5103",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "966dd6f062443d8180604acbf1889fcb0673db273d1287c214d41c2bc452fa57",
            "sweep_differential.csv":
                "fc945b2f5797c0c0c4990ac4091d82a19f3b6d120ceef06d6cb3089e905fb5f3",
            "sweep_trace.csv":
                "dc544951ea5bb04a714d11f7ec47cbee613cf69cf977cb061bc57d84666b49e6",
        },
        57: {
            "analysis_report.txt":
                "54df0863923a0a91bffb35f4f080830e545a29d1a1fbfdaa4424b175189c08b9",
            "exposure_trace.csv":
                "09099e3f96c2d07dd18c6a1b3ba1ec5ab50d597928519b82c78f253f001b1b87",
            "overlay_gate_photo.csv":
                "cc7c3ebc9b8a58cd962bafec14803849c25042106772b7354d282ca327e23608",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "b79df007e72d96f8fbd4a7bd65a97c14e76413eabe358e55db392d6b5389d98e",
            "sweep_differential.csv":
                "fc945b2f5797c0c0c4990ac4091d82a19f3b6d120ceef06d6cb3089e905fb5f3",
            "sweep_trace.csv":
                "2219b5fce572cc1bebca81be49198450f7775fb3572a1564e955c3b8982d5c5e",
        },
    },
    AVX2: {
        1: {
            "analysis_report.txt":
                "a060f386c211015fec64011b45ca7ab273be3ded753f08f35fd850c93b646e98",
            "exposure_trace.csv":
                "0038166193f04e426504e29229a196d67dbe1b706390f92c0bdbb0180aa730e8",
            "overlay_gate_photo.csv":
                "ded9d50f1001601f5c30a205ab1dde15b75166b432a561e60a5a8b5704ee1cc4",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "4afb5e0240476c25316398cc14863ac45f6c264f91fe6c2e5a670faec4c6f82b",
            "sweep_differential.csv":
                "34347a6623a52f27296fa0aef1ec68c49d87bc6dd5e5aa185b0ba3bdb73b1eb3",
            "sweep_trace.csv":
                "5069f41a4410db8de66f048e452e2b714af2a4d4a2b6eeda1c64ea3aa9a067e7",
        },
        3: {
            "analysis_report.txt":
                "ab0eb469a971ee5f5511b886f708ce006e194ce8ae7804d6b8b4e1c0526aa0ba",
            "exposure_trace.csv":
                "cc9f08d790f3998fe7aac7edb54f90c393592526fa2613fa7883f1c841ee5b08",
            "overlay_gate_photo.csv":
                "6953985ec0fb0450df632158826f92dc67f2ba5bab270fdf74aec1a834c37d6c",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "744daeef7a6a0085220e924f0195787f5539a9c2d9ddef4f3bcfdc67ee0e6e62",
            "sweep_differential.csv":
                "34347a6623a52f27296fa0aef1ec68c49d87bc6dd5e5aa185b0ba3bdb73b1eb3",
            "sweep_trace.csv":
                "91a41d6184a2e90bb71f38b683578a21f43e2ad70b179ed98ad9d07ded9b7e6f",
        },
        57: {
            "analysis_report.txt":
                "01d1e43bd519d2426541d09fa004fb99131bb5c6c57df6f3def8369196c44f1d",
            "exposure_trace.csv":
                "cc07d81f9c145ddf8bf41ef53f2590f89f2f121b90684c1ad7188946eaa1884c",
            "overlay_gate_photo.csv":
                "5dc1b91ca3ef0b49cf63957c40413cab618cd0c3b4c93d98a5902c089d8a6977",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "74950cfe029f7046e568e8c9ffb2fd392863c8edb815de51079c7420b41d54b9",
            "sweep_differential.csv":
                "34347a6623a52f27296fa0aef1ec68c49d87bc6dd5e5aa185b0ba3bdb73b1eb3",
            "sweep_trace.csv":
                "3b81f8501cd902195e5e7f53fc2719198f4bc2098c714751f05d29bdf9d48a63",
        },
    },
}


# {tier: {seed: {file name: sha256}}} of the 700 nm path
BUFFER_DIGESTS = {
    AVX512: {
        1: {
            "analysis_report.txt":
                "9c503111334a5365e9cefb0d4914c97ecd8b21d46167dfaec7a3d54753e2d080",
            "exposure_trace.csv":
                "a4aa3f8473ed05517579983ae744157b9907f91875072fb574d5910b9f6487d6",
        },
        3: {
            "analysis_report.txt":
                "acf670f39bb61f9d35a2b54dc980183afa5bed6c726d94d9eb23021847f23630",
            "exposure_trace.csv":
                "7edf20e7e604713b002cd097c48e2a08a76c6bc9e32618299500081dd33cc5ff",
        },
        57: {
            "analysis_report.txt":
                "abf1aac786fdcbe33a5fa951a291869ca229558c8ea8f73d989d7a48b7b3a6ba",
            "exposure_trace.csv":
                "b57c5cae562d5131c2db1d2708e8d2b54f857e066110ef23157d60e5b2c9303a",
        },
    },
    AVX2: {
        1: {
            "analysis_report.txt":
                "9c503111334a5365e9cefb0d4914c97ecd8b21d46167dfaec7a3d54753e2d080",
            "exposure_trace.csv":
                "5ecd96e2f3d01a2f44962bacc11260857f81e6c62d326753620686189c7dc940",
        },
        3: {
            "analysis_report.txt":
                "acf670f39bb61f9d35a2b54dc980183afa5bed6c726d94d9eb23021847f23630",
            "exposure_trace.csv":
                "ac41faa89bb8978f79d0b179eee8ab192b76905f62d47253ae968ebace50bee9",
        },
        57: {
            "analysis_report.txt":
                "abf1aac786fdcbe33a5fa951a291869ca229558c8ea8f73d989d7a48b7b3a6ba",
            "exposure_trace.csv":
                "27cb484ed1deb0e15181f3da3a02204b344c3dce9fa17c9f6426133648655162",
        },
    },
}


def _digests(out) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _run_all(seed: int, out) -> dict[str, str]:
    s = ["--seed", str(seed), "--out", str(out)]
    assert main(["sweep", *s]) == 0
    assert main(["expose", *s]) == 0
    assert main(["analyze", str(out / "exposure_trace.csv"), *s]) == 0
    assert main(["reproduce-figures", *s]) == 0
    return _digests(out)


def _run_buffer(seed: int, tmp) -> dict[str, str]:
    config, out = tmp / "buffer.cfg", tmp / "out"
    config.write_text("traps.buffer_trap_count=8000\nsource.incident_rate=6.0\n")
    s = ["--seed", str(seed), "--out", str(out), "--config", str(config)]
    assert main(["expose", "--wavelength", "700", *s]) == 0
    assert main(["analyze", str(out / "exposure_trace.csv"), *s]) == 0
    return _digests(out)


def _recorded_tier(digests):
    tier = _tier()
    if tier not in digests:
        pytest.skip(f"no output digests recorded for numpy {tier[0]} with "
                    f"{dict(zip(TIER_FEATURES, tier[1]))}")
    return tier


@pytest.mark.parametrize("seed", [1, 3, 57])
def test_default_cli_outputs_match_their_digests(tmp_path, seed):
    assert _run_all(seed, tmp_path) == DIGESTS[_recorded_tier(DIGESTS)][seed]


@pytest.mark.parametrize("seed", [1, 3, 57])
def test_buffer_700_outputs_match_their_digests(tmp_path, seed):
    assert _run_buffer(seed, tmp_path) == BUFFER_DIGESTS[_recorded_tier(BUFFER_DIGESTS)][seed]


def test_avx2_digests_match_in_a_subprocess_of_an_avx512_run():
    if _tier() != AVX512:
        pytest.skip("the AVX2 set is rerun only from an AVX-512 run")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(TIER_FEATURES),
               PYTHONPATH=str(Path(qpcsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_default_cli_outputs_match_their_digests",
         f"{__file__}::test_buffer_700_outputs_match_their_digests"],
        env=env, cwd=Path(__file__).parents[1], capture_output=True, text=True)
    # a skip (no AVX2 set for this numpy) fails here too
    assert re.search(r"\b6 passed\b", proc.stdout), proc.stdout[-2000:]
