import tracemalloc

import pytest

from qpcsim import (
    DeviceParams,
    ExposureConfig,
    PhotonSource,
    TrapConfig,
    build_ensemble,
    simulate_exposure,
)
from qpcsim.cli import subseed
from qpcsim.transport import _mode_sum, _thermal_average


@pytest.fixture(scope="session")
def device():
    return DeviceParams()


@pytest.fixture(scope="session")
def default_exposure():
    """The default noisy 550 nm run to saturation (master seed 1, CLI seeding)."""
    ensemble = build_ensemble(TrapConfig(), subseed(1, "ensemble"))
    config = ExposureConfig(seed=subseed(1, "exposure"))
    trace = simulate_exposure(DeviceParams(), ensemble, PhotonSource(), config)
    return trace, ensemble


@pytest.fixture(scope="session")
def noiseless_saturated_exposure():
    """Same run with the noise switched off; the clean staircase."""
    ensemble = build_ensemble(TrapConfig(), subseed(1, "ensemble"))
    config = ExposureConfig(noise_sigma=0.0, seed=subseed(1, "exposure"))
    trace = simulate_exposure(DeviceParams(), ensemble, PhotonSource(), config)
    return trace, ensemble


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_bytes():
    """`peak_bytes(call, *args)`: tracemalloc's peak, in bytes, while `call(*args)` runs."""
    return _peak_bytes


def _by_quadrature(v, params, nodes, derivative=0):
    kt, width = params.thermal_energy, params.tunnel_width
    total = _mode_sum(v, params, lambda x: _thermal_average(x, kt, width, nodes)[derivative])
    return params.lever_arm * total if derivative else total


@pytest.fixture(scope="session")
def by_quadrature():
    """`by_quadrature(v, params, nodes, derivative=0)`: G (derivative 0) or dG/dVg (1)
    summed over modes from the direct `nodes`-node thermal average, not the table:
    the oracle the table is checked against."""
    return _by_quadrature
