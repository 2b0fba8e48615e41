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
                "3efca028df092e52133a9d071a04349aade8e426ddf50c29e2c119c2c770073d",
            "overlay_gate_photo.csv":
                "c8796f359e523f1671e996f075f973cebae85356bbcf3fbc48f7c5619720b53e",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "e3140d0780b38728d6306f9f4da0ff1a6095aabc297c9f03216123fa1e8b0eda",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "0789fb9f2a4f09f09ac236dd6ea68b71970eb092a2a1d6a537fb6d0d36bd9215",
        },
        3: {
            "analysis_report.txt":
                "30160c9a5901228493a31195d42769a957ad6a64aae943e75ff78d9f9a537d85",
            "exposure_trace.csv":
                "ccafcaf7fa2d9aba2fc609a4eb5f41772b86b49f2c51a748194657c310c6d7d5",
            "overlay_gate_photo.csv":
                "a28659ed40a3d9ea08f1d9a5b82b10e0a0696a1d1ebe7677970772413769c78a",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "d68eecc10238551657f443fc14cdea16b33b40d5729c76502b30def6ae4b2b7c",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "23c9d2e69778c3a40e17c44361dd51302437ba742b580e1454a3c9fc56c604ba",
        },
        57: {
            "analysis_report.txt":
                "c8e79509c873750d27cb158d5af6377af23f36fb5054bc8d288e9a600bd41279",
            "exposure_trace.csv":
                "5ef5a2cd46600167297ed5ee7aabad6d6adbf7e4f84f8c3d621bc67390675c5c",
            "overlay_gate_photo.csv":
                "1385c5d76359dd391b6728d451e02472929d849256cb0c52e1fa3dd844e93303",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "33df8cd4abf2004c4ce1d416107615531be6b6e8defe63b96d6fac7ee43edf1a",
            "sweep_differential.csv":
                "0d147dce21890229c67aeb2ff9713b38fa487f5229291c8496ad2fa71022b14f",
            "sweep_trace.csv":
                "992ccf2731b290ee57c0573745770bd052744e967f681ba950043e558adc40e8",
        },
    },
    AVX2: {
        1: {
            "analysis_report.txt":
                "99dad9d4aff2e14773a44db2b9e42cd6b50c28f7c73a6da914e74ea5adfce5b7",
            "exposure_trace.csv":
                "62c791b03563019e0d6d63ff75ed2425b27ec4f60c8227e41e94d44fc8ea0670",
            "overlay_gate_photo.csv":
                "657c57d49ac771f2c8c694870931af98659ce1f79884e36f3f9a718701933812",
            "photon_interval_histogram.csv":
                "da6df5c35fad0a5b10aea33f8fa5490e3ca04a4f966cab77ad3273822bc4ab98",
            "step_heights_vs_transconductance.csv":
                "87ae54ac54dc8130a2230f7febb28034fbfb125b5a3f22fb60957743b829b3df",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "472c938d789bdcd8f1e567c5fecb033cc39b516d3fdcc03a31617ff5b00491ac",
        },
        3: {
            "analysis_report.txt":
                "51a5e43bb16021ec5cea61bf6e3ac2aa94fd03b2a71ed260f7ac14bee7f22f31",
            "exposure_trace.csv":
                "75516bb428d36830b0221ea9291e65324b8345c9371abdab87d3f826ce6f9512",
            "overlay_gate_photo.csv":
                "c029e07b1f2075f7c74e5e0c1df1948d927a0a5e3af8e7f51f73883a909482ee",
            "photon_interval_histogram.csv":
                "3951536224231b4ce612bb25c40b386dd5e6bbf7a5ab0631b6b3a7ad93268654",
            "step_heights_vs_transconductance.csv":
                "f5fd2a003a85eec9d77af6c06cbc0d0b81baace41d4580bb4b33fd6c63370203",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "cbfa00eb824cfc0ecb643b64d902cd7920c9ddab8c2c2a5af3df58b5c4bfc798",
        },
        57: {
            "analysis_report.txt":
                "7ecc994ffea27e4a11f306f16ab676da9ec30c1a898adb8377fd7d1ac728a5c3",
            "exposure_trace.csv":
                "352614aaa243291c88d0e5c24a62e124c0c70e923e8c5c0f195ccc2e42e29806",
            "overlay_gate_photo.csv":
                "324b77a0aa004ac02a9899ba6e599187717927b22f8c90d91c101028db4a32cd",
            "photon_interval_histogram.csv":
                "0639c03910b2552089ae41b1c61ceff42ac053b1d24a4ba3cc22b4a299637a27",
            "step_heights_vs_transconductance.csv":
                "48a3d14ba40867b573e053a1d4b96e4e8f72e4c139a72b3e78b05f7f4806a42d",
            "sweep_differential.csv":
                "029fee0fb341b1d208e9f9343da635f5eb9e9a7ca1dfb5f6647ca42966006ddf",
            "sweep_trace.csv":
                "f286ea272bea8e709e09ed30ba158c4923d9c00cf50d730500ca5113c516c574",
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
