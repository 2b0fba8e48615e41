import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpcsim.charge import (
    LAYER_BARRIER,
    LAYER_BUFFER,
    LAYER_NONE,
    PhotonSource,
    TrapConfig,
    TrapEnsemble,
    absorption_target,
    build_ensemble,
    capture_photon,
    capture_photons,
    cumulative_gate_shift,
    effective_gate_shift,
    free_traps,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_dopant_trap_count_is_carrier_count():
    config = TrapConfig()
    # 3.3e11 cm^-2 over 3e-10 cm^2: about one hundred carriers
    assert config.dopant_trap_count == 99


def test_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(active_area=1e-15)  # rounds to zero traps
    with pytest.raises(ValueError):
        TrapConfig(saturation_gate_shift=0.0)
    with pytest.raises(ValueError):
        PhotonSource(wavelength=-5.0)
    with pytest.raises(ValueError):
        PhotonSource(quantum_efficiency=1.5)
    with pytest.raises(ValueError):
        TrapEnsemble(couplings=[0.0], dopant_count=1)


# ---------------------------------------------------------------------------
# build_ensemble
# ---------------------------------------------------------------------------

def test_default_ensemble_seed1_couplings_sum_near_saturation():
    ensemble = build_ensemble(TrapConfig(), seed=1)
    dopant = ensemble.dopant_couplings()
    assert dopant.size == 99
    total = dopant.sum()
    # exponential draws with mean 0.2/99: sum within the 20% sampling band
    assert 0.16 <= total <= 0.24
    assert np.all(dopant > 0)


def test_same_seed_builds_identical_ensembles():
    a = build_ensemble(TrapConfig(), seed=11)
    b = build_ensemble(TrapConfig(), seed=11)
    assert (a.dopant_count, a.couplings.tolist(), a.captured) == \
           (b.dopant_count, b.couplings.tolist(), b.captured)


def test_different_seed_differs():
    a = build_ensemble(TrapConfig(), seed=11)
    b = build_ensemble(TrapConfig(), seed=12)
    assert a.couplings.tolist() != b.couplings.tolist()


def test_buffer_couplings_bounded_by_scale():
    config = TrapConfig()
    ensemble = build_ensemble(config, seed=5)
    buffers = ensemble.couplings[ensemble.dopant_count:].tolist()
    assert len(buffers) == config.buffer_trap_count
    assert all(0.0 < c <= config.buffer_coupling_scale for c in buffers)


def test_all_traps_start_unoccupied():
    ensemble = build_ensemble(TrapConfig(), seed=2)
    assert ensemble.occupied_count == 0
    assert effective_gate_shift(ensemble) == 0.0


# ---------------------------------------------------------------------------
# absorption_target
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("wavelength,layer", [
    (550.0, LAYER_BARRIER),    # well above the barrier gap: discrete steps
    (650.0, LAYER_BARRIER),    # onset of the single-photon steps
    (700.0, LAYER_BUFFER),     # buffer absorption only: smooth response
    (870.0, LAYER_BUFFER),
    (871.0, LAYER_NONE),
    (1000.0, LAYER_NONE),      # below-gap photon
])
def test_absorption_target(wavelength, layer):
    assert absorption_target(wavelength) == layer


def test_absorption_target_rejects_nonpositive():
    with pytest.raises(ValueError):
        absorption_target(0.0)
    with pytest.raises(ValueError):
        absorption_target(-650.0)


# ---------------------------------------------------------------------------
# capture_photon / effective_gate_shift
# ---------------------------------------------------------------------------

def test_first_capture_occupies_one_dopant_trap():
    ensemble = build_ensemble(TrapConfig(), seed=4)
    rng = np.random.default_rng(0)
    trap = capture_photon(ensemble, LAYER_BARRIER, rng)
    assert trap is not None and ensemble.captured == [trap]
    assert trap < ensemble.dopant_count
    assert ensemble.occupied_count == 1
    assert effective_gate_shift(ensemble) == ensemble.couplings[trap]


def test_buffer_layer_fills_only_buffer_traps():
    ensemble = build_ensemble(TrapConfig(), seed=4)
    rng = np.random.default_rng(0)
    trap = capture_photon(ensemble, LAYER_BUFFER, rng)
    assert trap >= ensemble.dopant_count


def test_capture_in_dead_layer_is_an_error():
    ensemble = build_ensemble(TrapConfig(), seed=4)
    with pytest.raises(ValueError):
        capture_photon(ensemble, LAYER_NONE, np.random.default_rng(0))


def test_saturated_ensemble_returns_none():
    config = TrapConfig(buffer_trap_count=0)
    ensemble = build_ensemble(config, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(99):
        assert capture_photon(ensemble, LAYER_BARRIER, rng) is not None
    assert capture_photon(ensemble, LAYER_BARRIER, rng) is None
    assert ensemble.occupied_count == 99


def test_full_capture_shift_equals_coupling_sum_exactly():
    config = TrapConfig(buffer_trap_count=0)
    ensemble = build_ensemble(config, seed=9)
    rng = np.random.default_rng(1)
    running = 0.0
    for _ in range(99):
        running += ensemble.couplings[capture_photon(ensemble, LAYER_BARRIER, rng)]
    # both sides sum the same floats in capture order: exact identity, so a
    # later run starts bit for bit at the level this one accumulated
    assert effective_gate_shift(ensemble) == running
    # the trap-order sum agrees up to float reassociation
    expected = sum(ensemble.couplings.tolist())
    assert running == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.2, rel=0.25)


def test_capture_sequence_deterministic():
    def run(seed):
        ensemble = build_ensemble(TrapConfig(), seed=21)
        rng = np.random.default_rng(seed)
        return [ensemble.couplings[capture_photon(ensemble, LAYER_BARRIER, rng)]
                for _ in range(30)]
    assert run(5) == run(5)
    assert run(5) != run(6)


def test_occupancy_is_one_way_and_shift_monotone():
    ensemble = build_ensemble(TrapConfig(), seed=13)
    rng = np.random.default_rng(2)
    last = 0.0
    for _ in range(50):
        capture_photon(ensemble, LAYER_BARRIER, rng)
        shift = effective_gate_shift(ensemble)
        assert shift >= last
        last = shift
    assert ensemble.occupied_count == 50


def test_barrier_capture_saturates_with_buffer_traps_still_empty():
    config = TrapConfig(carrier_density=3.4e9)  # one dopant trap only
    ensemble = build_ensemble(config, seed=1)
    rng = np.random.default_rng(3)
    assert capture_photon(ensemble, LAYER_BARRIER, rng) is not None
    # dopants exhausted: barrier capture saturates, the buffer traps stay out of reach
    assert capture_photon(ensemble, LAYER_BARRIER, rng) is None
    assert ensemble.occupied_count == 1


# ---------------------------------------------------------------------------
# capture_photons / cumulative_gate_shift
# ---------------------------------------------------------------------------

def _preoccupied_ensemble(buffer_count, seed, fraction):
    ensemble = build_ensemble(TrapConfig(buffer_trap_count=buffer_count), seed=seed)
    filled = np.random.default_rng(seed).random(len(ensemble.couplings)) < fraction
    ensemble.captured.extend(np.flatnonzero(filled).tolist())
    return ensemble


@settings(max_examples=60, deadline=None, derandomize=True)
@example(buffer_count=0, layer=LAYER_BARRIER, fraction=0.0,
         count=120, seed=9)    # one draw per dopant trap, then saturation
@example(buffer_count=300, layer=LAYER_BUFFER, fraction=0.0,
         count=301, seed=9)
@example(buffer_count=5, layer=LAYER_BARRIER, fraction=1.0,
         count=3, seed=2)      # saturated before the first photon
@given(buffer_count=st.integers(0, 300),
       layer=st.sampled_from([LAYER_BARRIER, LAYER_BUFFER]),
       fraction=st.sampled_from([0.0, 0.3, 0.9]) | st.floats(0.0, 1.0),
       count=st.integers(0, 420),
       seed=st.integers(0, 2**32 - 1))
def test_batched_capture_matches_rescan_per_photon(buffer_count, layer, fraction, count,
                                                   seed):
    ens_a = _preoccupied_ensemble(buffer_count, seed, fraction)
    ens_b = _preoccupied_ensemble(buffer_count, seed, fraction)
    rng_a = np.random.default_rng(seed + 1)
    rng_b = np.random.default_rng(seed + 1)

    batched = capture_photons(ens_a, layer, rng_a, count)

    # reference: rescan for the eligible empty traps (dopant traps are the
    # index prefix, buffer traps the rest) before every photon and pick one
    # with a scalar draw over the whole candidate list
    n = ens_b.dopant_count
    population = range(n) if layer == LAYER_BARRIER else range(n, len(ens_b.couplings))
    rescanned = []
    for _ in range(count):
        occupied = set(ens_b.captured)
        candidates = [i for i in population if i not in occupied]
        if not candidates:
            break
        i = candidates[rng_b.integers(len(candidates))]
        ens_b.captured.append(i)
        rescanned.append(i)

    # and one capture_photon call per photon, up to the first None
    ens_c = _preoccupied_ensemble(buffer_count, seed, fraction)
    rng_c = np.random.default_rng(seed + 1)
    single = []
    for _ in range(count):
        trap = capture_photon(ens_c, layer, rng_c)
        if trap is None:
            break
        single.append(trap)

    assert batched == rescanned
    assert single == rescanned
    occupancy = ens_b.captured
    assert ens_a.captured == occupancy
    assert ens_c.captured == occupancy
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert rng_c.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("buffer_count,count", [
    (8_000, 8_000),        # buffer-700-saturate: every buffer trap filled
    (2_099, 99),
    (1_000_000, 1_000),
])
def test_one_draw_for_all_picks_matches_a_scalar_draw_per_capture(buffer_count, count):
    # capture_photons draws all its picks in one rng.integers call; the
    # reference draws each pick with its own scalar call over one shared free list
    ens_a = build_ensemble(TrapConfig(buffer_trap_count=buffer_count), seed=11)
    ens_b = TrapEnsemble(ens_a.couplings, ens_a.dopant_count)
    rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)

    batched = capture_photons(ens_a, LAYER_BUFFER, rng_a, count)
    free = free_traps(ens_b, LAYER_BUFFER)
    single = [capture_photon(ens_b, LAYER_BUFFER, rng_b, free) for _ in range(count)]

    assert len(batched) == count and batched == single == ens_a.captured == ens_b.captured
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_capture_photons_stops_at_saturation():
    ensemble = build_ensemble(TrapConfig(buffer_trap_count=10), seed=4)
    rng = np.random.default_rng(0)
    traps = capture_photons(ensemble, LAYER_BUFFER, rng, 25)
    assert len(traps) == 10
    assert all(t >= ensemble.dopant_count and t in ensemble.captured for t in traps)
    assert len(set(traps)) == 10
    assert capture_photons(ensemble, LAYER_BUFFER, rng, 5) == []
    with pytest.raises(ValueError):
        capture_photons(ensemble, LAYER_BUFFER, rng, -1)
    with pytest.raises(ValueError):
        capture_photons(ensemble, LAYER_NONE, rng, 1)


def test_cumulative_gate_shift_is_the_running_sum():
    couplings = np.random.default_rng(3).exponential(2e-3, 500).tolist()
    levels = cumulative_gate_shift(0.1, couplings)
    running = [0.1]
    for c in couplings:
        running.append(running[-1] + c)
    # left to right in capture order, bit for bit
    assert levels.tolist() == running
    assert cumulative_gate_shift(0.25, []).tolist() == [0.25]


def test_ensemble_over_the_trap_cap_is_rejected_before_any_draw():
    # 10^11 buffer traps would ask for ~745 GiB; the cap names the total
    with pytest.raises(ValueError, match="<= 10000000, got 100000000099"):
        build_ensemble(TrapConfig(buffer_trap_count=10**11), seed=1)


def test_ensemble_validates_its_arrays():
    for couplings, dopant_count in [([float("nan")], 1), ([-1e-3], 1), ([1e-3], 2),
                                    ([1e-3, 2e-3], 3), ([1e-3], -1), ([[1e-3]], 1),
                                    ([[1e-3], [2e-3]], 0)]:
        with pytest.raises(ValueError):
            TrapEnsemble(couplings=couplings, dopant_count=dopant_count)
    for dopant_count in (0, 1, 2):
        ensemble = TrapEnsemble(couplings=[1e-3, 2e-3], dopant_count=dopant_count)
        assert ensemble.occupied_count == 0
        assert ensemble.dopant_couplings().tolist() == [1e-3, 2e-3][:dopant_count]


def test_overflowing_dopant_count_names_both_fields():
    with pytest.raises(ValueError, match="carrier_density \\* active_area"):
        TrapConfig(carrier_density=1e300, active_area=1e10)
