"""The bytes of every default CLI output, pinned by SHA-256.

For seeds 1, 3 and 57, `sweep`, `expose`, `analyze` (on that exposure) and
`reproduce-figures` run with no config file, and the seven files they write
must hash to the digests below.  A change that moves output bytes updates
these digests and says so in CHANGES.md.

numpy's `exp`, `cosh` and `log` give different last bits on different SIMD
tiers, so one digest set is kept per numpy version and per enabled state of
the AVX-512 features; the AVX2 set is the run with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  Where no set
matches the running numpy, the test skips and says why.
"""

import hashlib

import numpy as np
import pytest

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
                "461e319792ea44ea458ca557723fd0c17d7a8fddd333b07f94769f1955d68f64",
            "exposure_trace.csv":
                "f00fe0f1463775fa5b01ab96ef86ce285a9a68280420912f5dfe3f5ee32ab542",
            "overlay_gate_photo.csv":
                "c8796f359e523f1671e996f075f973cebae85356bbcf3fbc48f7c5619720b53e",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "e3140d0780b38728d6306f9f4da0ff1a6095aabc297c9f03216123fa1e8b0eda",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "5a2f278e4ba0b96b1ee2ef9ddc35e289a0607d63c17542393f8464c10592a80b",
        },
        3: {
            "analysis_report.txt":
                "30160c9a5901228493a31195d42769a957ad6a64aae943e75ff78d9f9a537d85",
            "exposure_trace.csv":
                "0fa68c4695fa695e430ae2acb75548476afd0644ffba2e149ea50b22f2eba303",
            "overlay_gate_photo.csv":
                "a28659ed40a3d9ea08f1d9a5b82b10e0a0696a1d1ebe7677970772413769c78a",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "d68eecc10238551657f443fc14cdea16b33b40d5729c76502b30def6ae4b2b7c",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "c8792d3e97a48dac04250d0ec86c40b048faefa8fbc3dce8a60e904d94b48e93",
        },
        57: {
            "analysis_report.txt":
                "c8e79509c873750d27cb158d5af6377af23f36fb5054bc8d288e9a600bd41279",
            "exposure_trace.csv":
                "9813a98b03e3efd3e1cf3b70215b672dbe36b3fb80ec5926d5127de4f6bd74cd",
            "overlay_gate_photo.csv":
                "1385c5d76359dd391b6728d451e02472929d849256cb0c52e1fa3dd844e93303",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "33df8cd4abf2004c4ce1d416107615531be6b6e8defe63b96d6fac7ee43edf1a",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "0e8722422e562c421c919480e655812fb0761c48495a20e5cd10f29047086e57",
        },
    },
    AVX2: {
        1: {
            "analysis_report.txt":
                "99dad9d4aff2e14773a44db2b9e42cd6b50c28f7c73a6da914e74ea5adfce5b7",
            "exposure_trace.csv":
                "44ad5faefffdfa51386b9b64102e9ee1f423ed22ea01a8de341f5c69ac08b61e",
            "overlay_gate_photo.csv":
                "657c57d49ac771f2c8c694870931af98659ce1f79884e36f3f9a718701933812",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "87ae54ac54dc8130a2230f7febb28034fbfb125b5a3f22fb60957743b829b3df",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "41c4c88f4e7cb7e06e75c4b356e58c5615d50ef1d83e2d3cfa98ec8bbab6eca0",
        },
        3: {
            "analysis_report.txt":
                "51a5e43bb16021ec5cea61bf6e3ac2aa94fd03b2a71ed260f7ac14bee7f22f31",
            "exposure_trace.csv":
                "48a9f4f7fb06acda4ebad9a1c2e00f97d6f0af05db6e8f29d2f3177a1c731110",
            "overlay_gate_photo.csv":
                "c029e07b1f2075f7c74e5e0c1df1948d927a0a5e3af8e7f51f73883a909482ee",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "f5fd2a003a85eec9d77af6c06cbc0d0b81baace41d4580bb4b33fd6c63370203",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "ccec9124c80604d9b2cfbf2048249dc85807dcbde5f1b861ae01ba45869686dd",
        },
        57: {
            "analysis_report.txt":
                "7ecc994ffea27e4a11f306f16ab676da9ec30c1a898adb8377fd7d1ac728a5c3",
            "exposure_trace.csv":
                "38778213f799cd8666713372ad139853af97ff6b4e525a88aa250376df8559fa",
            "overlay_gate_photo.csv":
                "324b77a0aa004ac02a9899ba6e599187717927b22f8c90d91c101028db4a32cd",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "48a3d14ba40867b573e053a1d4b96e4e8f72e4c139a72b3e78b05f7f4806a42d",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "c6b7f0646fc013c426cbeb18feefb5d97f13dc19ba576e281c12f87e4c73bb47",
        },
    },
}


def _run_all(seed: int, out) -> dict[str, str]:
    s = ["--seed", str(seed), "--out", str(out)]
    assert main(["sweep", *s]) == 0
    assert main(["expose", *s]) == 0
    assert main(["analyze", str(out / "exposure_trace.csv"), *s]) == 0
    assert main(["reproduce-figures", *s]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("seed", [1, 3, 57])
def test_default_cli_outputs_match_their_digests(tmp_path, seed):
    tier = _tier()
    if tier not in DIGESTS:
        pytest.skip(f"no output digests recorded for numpy {tier[0]} with "
                    f"{dict(zip(TIER_FEATURES, tier[1]))}")
    assert _run_all(seed, tmp_path) == DIGESTS[tier][seed]
