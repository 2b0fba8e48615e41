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
