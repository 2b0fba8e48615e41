"""Trap ensemble and photon-capture bookkeeping.

A trapped photo-hole adds fixed positive charge near the channel, which
acts on the channel exactly like a small positive gate increment.  Hole
capture proceeds either at a charged deep-donor complex (neutralized by
the hole) or at a neutral donor (ionized by it); both raise the net donor
charge by +e, so a trap carries only its gate-shift coupling, not which
of the two it is.  Occupation is one-way: at cryogenic temperature the
trapped charge does not recombine on experimental time scales, so no
release path is modeled.

Two trap populations exist: ~100 dopant-layer traps with mV-scale
couplings (discrete, countable steps) and a dilute background of buffer
traps far from the channel whose couplings are ~100x smaller, producing
only a smooth conductance drift.  Which population a photon can reach is
set by its wavelength (absorption layer).

An ensemble is the traps' couplings (the dopant traps first), the number
of dopant traps, and `captured`, the filled traps in capture order.  A run
captures its photons in one pass (`capture_photons`): one vectorized scan
for the m empty eligible traps, then one `capture_photon` call per photon
that draws from that free list and pops the trap it fills (O(m) pointer
moves, small next to a rescan).  Each draw is the same scalar draw over the
same ordered list as a rescan would make.  The trapped shift is the
left-to-right sum over `captured`, so a later run starts bit for bit at the
last level of the run before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .transport import MAX_SAMPLES, require_finite

# Wavelength (nm) below which photons are absorbed in the doped barrier
# layer (gap ~1.9 eV) and can reach the dopant traps.
BARRIER_ABSORPTION_EDGE_NM = 650.0

# Wavelength (nm) of the substrate band edge; beyond it nothing absorbs.
SUBSTRATE_ABSORPTION_EDGE_NM = 870.0

LAYER_BARRIER = "algaas"
LAYER_BUFFER = "gaas_buffer"
LAYER_NONE = "none"


@dataclass(frozen=True)
class TrapConfig:
    """Trap-population constants.

    The dopant trap count is the carrier count in the active area; with
    the defaults that is 99 traps whose couplings sum to the full 0.2 V
    gate equivalent of the saturated photoresponse.
    """

    carrier_density: float = 3.3e11          # cm^-2
    active_area: float = 3e-10               # cm^2
    saturation_gate_shift: float = 0.2       # V, total shift when all dopant traps fill
    buffer_trap_count: int = 2000
    buffer_coupling_scale: float = 1e-5      # V, upper bound of buffer couplings

    def __post_init__(self):
        require_finite(self)
        if not math.isfinite(self.carrier_density * self.active_area):
            raise ValueError("carrier_density * active_area must be finite, got "
                             f"{self.carrier_density!r} * {self.active_area!r}")
        if self.dopant_trap_count <= 0:
            raise ValueError("dopant trap count must be > 0")
        if self.saturation_gate_shift <= 0:
            raise ValueError("saturation_gate_shift must be > 0")
        if self.buffer_trap_count < 0:
            raise ValueError("buffer_trap_count must be >= 0")
        if self.buffer_coupling_scale <= 0:
            raise ValueError("buffer_coupling_scale must be > 0")

    @property
    def dopant_trap_count(self) -> int:
        return int(round(self.carrier_density * self.active_area))

    @property
    def mean_dopant_coupling(self) -> float:
        """Mean per-trap gate shift (V); count * mean = saturation shift."""
        return self.saturation_gate_shift / self.dopant_trap_count


@dataclass(frozen=True)
class PhotonSource:
    wavelength: float = 550.0        # nm
    incident_rate: float = 0.1       # photons/s on the active area
    quantum_efficiency: float = 0.3

    def __post_init__(self):
        require_finite(self)
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        if self.incident_rate < 0:
            raise ValueError("incident_rate must be >= 0")
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in [0, 1]")

    @property
    def detected_rate(self) -> float:
        """Rate of detectable absorption events (incident thinned by QE)."""
        return self.incident_rate * self.quantum_efficiency


@dataclass(eq=False)
class TrapEnsemble:
    """All traps of one device instance; occupancy only ever increases.

    Trap i shifts the gate by `couplings[i]` (V) once filled; the first
    `dopant_count` traps are dopant traps, the rest buffer traps.
    `captured` holds the filled traps in capture order."""

    couplings: np.ndarray
    dopant_count: int
    captured: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.couplings = np.asarray(self.couplings, dtype=float)
        if self.couplings.ndim != 1:
            raise ValueError("couplings must be a 1-d array")
        if not np.all(np.isfinite(self.couplings) & (self.couplings > 0)):
            raise ValueError("trap couplings must be finite and > 0")
        if not 0 <= self.dopant_count <= self.couplings.size:
            raise ValueError(f"dopant_count must be in [0, {self.couplings.size}], "
                             f"got {self.dopant_count!r}")

    @property
    def occupied_count(self) -> int:
        return len(self.captured)

    def dopant_couplings(self) -> np.ndarray:
        return self.couplings[:self.dopant_count]


def build_ensemble(config: TrapConfig, seed: int) -> TrapEnsemble:
    """Draw a trap ensemble; deterministic for a fixed seed.

    Dopant couplings are exponential with mean
    saturation_gate_shift / count; buffer couplings are uniform in
    (0.2, 1.0) x buffer_coupling_scale, so every buffer coupling stays at
    or below the scale.  All traps start unoccupied.  Over `MAX_SAMPLES`
    traps in all is a ValueError, before any draw.
    """
    n, buffer = config.dopant_trap_count, config.buffer_trap_count
    if n + buffer > MAX_SAMPLES:
        raise ValueError(f"dopant + buffer trap count must be <= {MAX_SAMPLES}, got {n + buffer}")
    rng = np.random.default_rng(seed)
    # exponential draws are > 0 with probability 1, but guard exactly
    couplings = np.maximum(rng.exponential(config.mean_dopant_coupling, n), 1e-300)
    buffer_couplings = config.buffer_coupling_scale * rng.uniform(0.2, 1.0, buffer)
    return TrapEnsemble(np.concatenate([couplings, buffer_couplings]), n)


def absorption_target(wavelength: float) -> str:
    """Which layer absorbs a photon of this wavelength (nm).

    Short wavelengths reach the doped barrier layer (dopant traps, discrete
    steps); between the barrier and substrate band edges only the dilute
    buffer traps are reachable (smooth rise); below the substrate gap no
    absorption occurs.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    if wavelength <= BARRIER_ABSORPTION_EDGE_NM:
        return LAYER_BARRIER
    if wavelength <= SUBSTRATE_ABSORPTION_EDGE_NM:
        return LAYER_BUFFER
    return LAYER_NONE


def free_traps(ensemble: TrapEnsemble, layer: str) -> list[int]:
    """The empty traps of `layer`'s population (dopant or buffer), in index order."""
    if layer not in (LAYER_BARRIER, LAYER_BUFFER):
        raise ValueError(f"no capture possible in layer {layer!r}")
    eligible = ((np.arange(ensemble.couplings.size) >= ensemble.dopant_count)
                == (layer == LAYER_BUFFER))
    eligible[ensemble.captured] = False
    return np.flatnonzero(eligible).tolist()


def capture_photon(ensemble: TrapEnsemble, layer: str, rng: np.random.Generator,
                   free: list[int] | None = None) -> int | None:
    """Capture one photo-hole at a uniformly chosen eligible empty trap.

    Returns the newly occupied trap's index, or None once every eligible
    trap is already filled (saturation of the photoresponse; not an error).
    `free`, from `free_traps`, spares the scan: the trap is drawn from it
    and removed from it, so it stays exact while only these calls fill
    traps.
    """
    if free is None:
        free = free_traps(ensemble, layer)
    if not free:
        return None
    index = free.pop(rng.integers(len(free)))
    ensemble.captured.append(index)
    return index


def capture_photons(ensemble: TrapEnsemble, layer: str, rng: np.random.Generator,
                    count: int) -> list[int]:
    """Capture up to `count` photo-holes, each at a uniformly chosen empty trap.

    Returns the newly occupied traps' indices in capture order; the list is
    shorter than `count` once every eligible trap is filled (saturation,
    not an error), and no draw is made past that point.  One scan serves
    every `capture_photon` call; the calls pick the same traps, and leave
    `rng` in the same state, as calls that each rescan the ensemble.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    free = free_traps(ensemble, layer)
    return [capture_photon(ensemble, layer, rng, free)
            for _ in range(min(count, len(free)))]


def cumulative_gate_shift(initial: float, couplings) -> np.ndarray:
    """Gate shift before and after each capture: [initial, initial + c0, ...].

    Couplings are added left to right in capture order (a running sum, not
    a pairwise reduction), so the last level is bit-for-bit the shift a
    run accumulated one capture at a time.
    """
    return np.cumsum(np.concatenate([[initial], np.asarray(couplings, dtype=float)]))


def effective_gate_shift(ensemble: TrapEnsemble) -> float:
    """Gate-shift equivalent (V) of all occupied traps, summed left to right in capture order."""
    return float(cumulative_gate_shift(0.0, ensemble.couplings[ensemble.captured])[-1])
