"""Properties of the per-device transmission table and the grid inversion.

`conductance` and `transconductance` read the thermally averaged
transmission from a table built once per device, of at most 5,121 nodes
whatever kT and the tunnel width; the `by_quadrature` fixture integrates
directly and is the oracle here.  `_invert_conductance` starts
from the analyzer's model grid and polishes with Newton steps.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qpcsim
from qpcsim.analyze import _invert_conductance, _model_grid
from qpcsim.transport import (
    QUAD_ORDER,
    DeviceParams,
    _transmission_table,
    conductance,
    transconductance,
)

# The ranges of test_monotone_and_bounded_over_random_devices, with the
# temperature reaching down to the 0.001 K cold limit.
random_devices = st.builds(
    DeviceParams,
    fermi_energy=st.floats(0.5, 4.0),
    temperature=st.just(0.001) | st.floats(0.001, 20.0),
    mode_spacing=st.floats(1.0, 12.0),
    tunnel_width=st.floats(0.1, 2.0),
    lever_arm=st.floats(10.0, 120.0),
    threshold_voltage=st.floats(-2.5, -0.5),
    num_modes=st.integers(1, 5),
    anomaly_enabled=st.booleans(),
    anomaly_weight=st.floats(0.3, 0.9),
    anomaly_split=st.floats(0.2, 3.0),
)

# kT ~ 1700 w/2pi: the table is spaced by kT, and the oracle integrates over w/2pi
HOT = DeviceParams(temperature=2000.0, tunnel_width=0.1)


def operating_grid(params, n=400):
    v = _model_grid(params)[0]
    return np.linspace(v[0], v[-1], n)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(params=HOT)
@given(params=random_devices)
def test_table_conductance_monotone_bounded_and_slope_nonnegative(params):
    v = np.linspace(params.threshold_voltage - 0.1, params.threshold_voltage + 0.6, 400)
    g = conductance(v, params)
    dg = transconductance(operating_grid(params), params)
    assert np.all(np.diff(g) >= 0.0)
    assert g.min() >= 0.0 and g.max() <= params.num_modes
    assert np.all(dg >= 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(params=HOT)
@given(params=random_devices)
def test_table_matches_direct_quadrature(params, by_quadrature):
    v = operating_grid(params)
    g_err = np.abs(conductance(v, params) - by_quadrature(v, params, QUAD_ORDER))
    dg_err = np.abs(transconductance(v, params) - by_quadrature(v, params, QUAD_ORDER, 1))
    assert g_err.max() <= 1e-10
    assert dg_err.max() <= 1e-7


# kT = w/2pi gives the largest table; at this width, counting its cells as
# 2 half / h rounds up to 5,122 nodes
EQUAL_WIDTH = 0.18511842406753112


@settings(max_examples=30, deadline=None, derandomize=True)
@example(kt=EQUAL_WIDTH / (2 * np.pi), tunnel_width=EQUAL_WIDTH)
@example(kt=HOT.thermal_energy, tunnel_width=HOT.tunnel_width)
@given(kt=st.floats(1e-5, 1e3), tunnel_width=st.floats(1e-3, 1e2))
def test_every_device_gets_a_table_of_at_most_5121_nodes(kt, tunnel_width):
    phi, dphi = _transmission_table(kt, tunnel_width)
    assert phi.cells == dphi.cells <= 5120


def test_table_is_exact_outside_its_range(device):
    # far below threshold every mode is closed, far above every mode is open
    lo, hi = device.threshold_voltage - 1.0, device.threshold_voltage + 2.0
    assert conductance(lo, device) == 0.0 and transconductance(lo, device) == 0.0
    assert conductance(hi, device) == device.num_modes
    assert transconductance(hi, device) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=random_devices | st.just(DeviceParams()),
       fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_inversion_recovers_the_conductance(params, fraction):
    _, g, _ = _model_grid(params)
    target = float(g[0] + fraction * (g[-1] - g[0]))
    assume(g[0] < target < g[-1])
    v = _invert_conductance(target, params)
    assert conductance(v, params) == pytest.approx(target, abs=1e-12)


def test_inversion_is_batch_invariant_and_nan_outside_the_range(device):
    _, g, _ = _model_grid(device)
    targets = np.concatenate([[g[0], g[-1], np.nan],
                              np.linspace(g[0], g[-1], 41)[1:-1]])
    batch = _invert_conductance(targets, device)
    assert np.isnan(batch[:3]).all() and not np.isnan(batch[3:]).any()
    for target, v in zip(targets[3:], batch[3:]):
        assert _invert_conductance(float(target), device) == v


@pytest.mark.parametrize("args", [["-c", "import qpcsim"], ["-m", "qpcsim", "--help"]])
def test_runtime_never_imports_scipy(args):
    # scipy is a test-only dependency: the package and its CLI load without it
    env = dict(os.environ, PYTHONPATH=str(Path(qpcsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "qpcsim" in modules
    assert not [m for m in modules if m.partition(".")[0] == "scipy"]
