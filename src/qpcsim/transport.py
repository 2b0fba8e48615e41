"""Quantized conductance of a split-gate point-contact channel.

The constriction is modeled as a saddle-point potential: each transverse
mode contributes a logistic transmission step centered on its subband
bottom, and the gate voltage shifts all subband bottoms linearly through
the lever arm.  At finite temperature the conductance is the transmission
averaged over the thermal window (-df/dE) around the Fermi energy, which
rounds the plateau edges.  Conductance is expressed in units of 2e^2/h
throughout; one unit is ~1/12906 ohm.

Every mode shares the tunnel width and kT, so the thermally averaged
transmission is one function Phi(x) of x = E_F - subband bottom.  G and
dG/dV sum Phi and Phi' over the modes from a table built once per device,
looking up as many modes at a time as fit in a fixed budget of (mode,
point) pairs: a small call makes one lookup, and no evaluation holds an
array that grows with the mode count.

The shoulder below the first plateau is modeled phenomenologically by
splitting the lowest mode into two weighted logistic components offset in
energy; no microscopic spin-interaction physics is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Annotated, NamedTuple, get_args, get_type_hints

import numpy as np

# Boltzmann constant in meV/K; k_B * 4.2 K = 0.362 meV.
KB_MEV_PER_K = 0.08617333262

# Calibration: at the threshold voltage the lowest subband bottom sits this
# far (meV) above the Fermi energy, so the channel is pinched off
# (G <= 0.02) right at threshold and opens just above it.
PINCH_MARGIN_MEV = 1.45

# Trapezoid nodes over +-40 of the narrower of kT and tunnel_width / 2pi.  At
# 161 the spacing is half that scale, and the rule converges like
# exp(-2pi^2 narrow / spacing) ~ 1e-17 for every device.
QUAD_ORDER = 161
_QUAD_BLOCK = 64  # points per quadrature block: (64, 161) temporaries, ~1 MiB per table build
# (mode, point) pairs per table lookup: 64 KiB temporaries, under glibc's 128 KiB
# mmap threshold, so a lookup reuses freed memory instead of mapping pages
_PAIRS = 8192

GATE_AXIS = "gate-voltage"
TIME_AXIS = "exposure-time"

# Most samples a sweep or an exposure may ask for: each costs several float64
# arrays and a row of text, so ~10^7 (58 days at the default 0.5 s) is the limit.
MAX_SAMPLES = 10_000_000

# Most transverse modes a device may have.  At the default 3.3e11 cm^-2,
# lambda_F ~ 44 nm, so 64 modes is a hard-wall channel ~1.4 um wide: far
# wider than a channel narrow enough to show quantized plateaus.
MAX_MODES = 64


_ACCEPTED = {bool: (bool, np.bool_), int: (int, np.integer),
             float: (int, float, np.integer, np.floating)}


def typed(key: str, value, typ):
    """`value` as a field of type `typ`: a bool only for bool, a non-bool int
    for int, an int or a float for float, numpy scalars of those kinds too.
    Anything else (or an int past the float range) raises ValueError naming `key`.
    """
    if isinstance(value, (bool, np.bool_)) == (typ is bool) and isinstance(value, _ACCEPTED[typ]):
        try:
            return typ(value)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be {typ.__name__}, got {value!r}")


# A config field's bound, declared in its annotation: (text, test) after the type.
Positive = Annotated[float, "> 0", lambda x: x > 0]
NonNegative = Annotated[float, ">= 0", lambda x: x >= 0]
Fraction = Annotated[float, "in [0, 1]", lambda x: 0 <= x <= 1]
Count = Annotated[int, ">= 0", lambda n: n >= 0]
ModeCount = Annotated[int, f"in [1, {MAX_MODES}]", lambda n: 1 <= n <= MAX_MODES]
Window = Annotated[int, ">= 2", lambda n: n >= 2]


@lru_cache(maxsize=None)
def field_rules(cls) -> tuple:
    """(name, type, bound text, bound test) per field of a config class, read once
    (the one reader of declared types); a field without a bound has None for both."""
    return tuple((name, *(get_args(hint) or (hint, None, None)))
                 for name, hint in get_type_hints(cls, include_extras=True).items())


def check_fields(config) -> None:
    """Check each field of a config dataclass by its declared type (`typed`),
    a float for finiteness, then by the bound its annotation declares.  The
    ValueError names the field and the value."""
    for name, typ, text, test in field_rules(type(config)):
        value = getattr(config, name)
        number = typed(name, value, typ)
        if typ is float and not math.isfinite(number):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if test and not test(number):
            raise ValueError(f"{name} must be {text}, got {value!r}")


@dataclass(frozen=True)
class DeviceParams:
    """Transport constants of the point-contact channel.

    Energies are in meV, voltages in volts.  The defaults are calibrated so
    that both the 1.0 and 2.0 plateaus fit within 0.2 V of gate above
    threshold, with thermal rounding at 4.2 K visible but small.
    """

    fermi_energy: float = 1.8        # meV
    temperature: Positive = 4.2      # K
    mode_spacing: Positive = 8.0     # meV, transverse subband spacing
    tunnel_width: Positive = 0.5     # meV, saddle energy scale (step sharpness)
    lever_arm: Positive = 64.0       # meV of subband shift per volt of gate: G rises with V
    threshold_voltage: float = -1.5  # V, channel-opening threshold
    num_modes: ModeCount = 5         # subbands in the conductance sum
    anomaly_enabled: bool = True
    anomaly_weight: float = 0.7      # weight of the early sub-step of mode 0
    anomaly_split: float = 2.4       # meV between the two mode-0 components

    def __post_init__(self):
        check_fields(self)
        if self.anomaly_enabled and not 0.0 < self.anomaly_weight < 1.0:
            raise ValueError(f"anomaly_weight must be in (0, 1), got {self.anomaly_weight!r}")

    @property
    def thermal_energy(self) -> float:
        """k_B * T in meV."""
        return KB_MEV_PER_K * self.temperature

    @property
    def gate_offset_voltage(self) -> float:
        """Gate voltage where the bare mode ladder is referenced.

        Chosen so that the first subband bottom sits PINCH_MARGIN_MEV above
        the Fermi energy exactly at threshold_voltage.
        """
        return self.threshold_voltage + (
            self.fermi_energy + PINCH_MARGIN_MEV - 0.5 * self.mode_spacing
        ) / self.lever_arm

    def subband_bottom(self, mode_index, gate_voltage) -> np.ndarray | float:
        """Energy (meV) of the bottom of subband `mode_index` at a gate voltage,
        broadcast over an array of mode indices and one of gate voltages."""
        v = np.asarray(gate_voltage, dtype=float)
        return self.mode_spacing * (mode_index + 0.5) - self.lever_arm * (
            v - self.gate_offset_voltage
        )


class TruthEvent(NamedTuple):
    """One capture: its time and coupling; `cumulative_gate_shift` gives the run's levels."""
    time: float          # s
    coupling: float      # V


def _owned(values) -> np.ndarray:
    """Read-only float64: an ndarray owning its data in place, anything else as a copy."""
    if not (type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata):
        values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@dataclass(eq=False)
class Trace:
    """Conductance (2e^2/h) sampled along a gate sweep or an exposure.

    Exposure runs also carry their configuration, photon counts and capture
    log `events`: (time s, coupling V) rows in capture order, a (k, 2) float
    array with finite, non-decreasing times, built from any such rows
    (`TruthEvent`s too); `truth_events` gives a new list of them per read.
    Its arrays are read-only: an owned float64 ndarray is taken in place (a
    view of it made before stays writable, past the checks), anything else is
    copied.
    """

    axis_kind: str                     # GATE_AXIS or TIME_AXIS
    times: np.ndarray                  # sample positions (V, or s for exposures)
    conductance: np.ndarray
    events: np.ndarray | None = None   # None for runs without a capture log
    config: dict = field(default_factory=dict)
    photons_incident: int = 0
    photons_absorbed: int = 0

    def __post_init__(self):
        if self.events is not None:
            events = np.asarray(self.events, dtype=float)
            self.events = _owned(np.empty((0, 2)) if events.shape == (0,) else events)
            if self.events.shape[1:] != (2,):
                raise ValueError(f"events must have shape (k, 2), got {events.shape}")
            t = self.events[:, 0]
            if not (np.isfinite(t).all() and np.all(t[1:] >= t[:-1])):
                raise ValueError("events section: times must be finite and non-decreasing")
        self.times, self.conductance = _owned(self.times), _owned(self.conductance)
        if self.times.shape != self.conductance.shape:
            raise ValueError("times and conductance must have the same length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.conductance))):
            raise ValueError("trace samples must be finite (no NaN or inf)")
        if not np.all(self.times[1:] > self.times[:-1]):
            raise ValueError("sample positions must be strictly increasing")
        if self.axis_kind not in (GATE_AXIS, TIME_AXIS):
            raise ValueError(f"axis must be {GATE_AXIS} or {TIME_AXIS}, got {self.axis_kind!r}")
        for name in ("photons_incident", "photons_absorbed"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
                raise ValueError(f"{name} must be an int >= 0, got {count!r}")

    def __len__(self) -> int:
        return self.times.size

    @property
    def truth_events(self) -> list[TruthEvent] | None:
        return None if self.events is None else list(map(TruthEvent, *self.events.T.tolist()))

    @property
    def photons_captured(self) -> int:
        return 0 if self.events is None else len(self.events)


# Second name for Trace, for callers that build gate-voltage curves by it.
ConductanceCurve = Trace


def _logistic_transmission(energy, subband_bottom, tunnel_width):
    z = -2.0 * np.pi * np.subtract(energy, subband_bottom, dtype=float) / tunnel_width
    return 1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))


def _thermal_average(x, kt: float, tunnel_width: float, nodes: int):
    """Phi(x) = sum_k K_k F(x + u_k) and its first three x-derivatives, by quadrature.

    Phi(x) is the CDF at x of the sum of two logistic variables of scales kT
    (-df/dE) and w/2pi (the transmission step), so it is symmetric in them:
    the trapezoid rule takes the narrower density K, normalized, at `nodes`
    offsets u_k over +-40 narrower scales, against F, the wider CDF.  The
    derivatives are s F(1-F), s^2 F(1-F)(1-2F) and s^3 F(1-F)(1-6F+6F^2)
    under the same sum, with s = 1/wide.  Taken _QUAD_BLOCK points at a
    time, so memory does not grow with points x nodes.
    """
    narrow, wide = sorted((kt, tunnel_width / (2.0 * np.pi)))
    y = np.linspace(-40.0, 40.0, nodes)
    offsets, kernel = narrow * y, 1.0 / (4.0 * np.cosh(0.5 * y) ** 2)
    kernel /= kernel.sum()
    s = 1.0 / wide
    x = np.asarray(x, dtype=float)
    out, column = np.empty((4, x.size)), x.reshape(-1, 1)
    for k in range(0, x.size, _QUAD_BLOCK):
        t = _logistic_transmission(offsets, -column[k:k + _QUAD_BLOCK], 2.0 * np.pi * wide)
        dt = s * t * (1.0 - t)
        moments = (t, dt, s * dt * (1.0 - 2.0 * t), s * s * dt * (1.0 - 6.0 * t * (1.0 - t)))
        # Row by row, not a BLAS matrix-vector product, which rounds with the
        # number of rows; conductance(v)[i] must equal conductance(v[i]).
        out[:, k:k + _QUAD_BLOCK] = [(r * kernel).sum(axis=-1) for r in moments]
    return tuple(out.reshape((4,) + x.shape))


class _Hermite:
    """Quintic Hermite interpolant from f, f' and f'' on a uniform grid, clipped to [lo, hi].

    Arguments past the grid evaluate its end cells, which the table pins.
    """

    def __init__(self, x0: float, h: float, f, df, d2f, lo: float, hi: float):
        d, e, delta = h * df, 0.5 * h * h * d2f, np.diff(f)
        d0, d1, e0, e1 = d[:-1], d[1:], e[:-1], e[1:]
        self.coef = np.stack([f[:-1], d0, e0,
                              10.0 * delta - 6.0 * d0 - 4.0 * d1 - 3.0 * e0 + e1,
                              -15.0 * delta + 8.0 * d0 + 7.0 * d1 + 3.0 * e0 - 2.0 * e1,
                              6.0 * delta - 3.0 * (d0 + d1) - e0 + e1])
        self.coef.flags.writeable = False  # shared through the table cache
        self.x0, self.h, self.cells, self.lo, self.hi = x0, h, delta.size, lo, hi

    def __call__(self, x):
        u = (x - self.x0) / self.h
        u = np.minimum(np.maximum(0.0, u, out=u), self.cells, out=u)  # np.clip's bits, -0.0 too
        i = np.fmin(u, self.cells - 1).astype(np.intp)  # NaN x: any cell, NaN result
        t, p = u - i, self.coef[5].take(i)
        for k in range(4, -1, -1):
            p *= t
            p += self.coef[k].take(i)
        return np.minimum(np.maximum(self.lo, p, out=p), self.hi, out=p)


@lru_cache(maxsize=8)
def _transmission_table(kt: float, tunnel_width: float):
    """(Phi, Phi') interpolants for one temperature and tunnel width.

    32 nodes per wider scale over x in +-40 (kT + w/2pi): 2560 (1 + narrow/wide)
    cells, at most 5,121 nodes.  The two end cells are pinned to Phi = 0 and 1
    with zero derivatives, since past them Phi is within 1e-17 of 0 or 1.
    """
    narrow, wide = sorted((kt, tunnel_width / (2.0 * np.pi)))
    h, half = wide / 32.0, 40.0 * (narrow + wide)
    x = -half + h * np.arange(math.ceil(2560.0 * (1.0 + narrow / wide)) + 1)
    phi, d1, d2, d3 = _thermal_average(x, kt, tunnel_width, QUAD_ORDER)
    for f, pinned in ((phi, 1.0), (d1, 0.0), (d2, 0.0), (d3, 0.0)):
        f[:2], f[-2:] = 0.0, pinned
    return (_Hermite(x[0], h, phi, d1, d2, 0.0, 1.0),
            _Hermite(x[0], h, d1, d2, d3, 0.0, np.inf))


def _mode_sum(effective_gate_voltage, params: DeviceParams, phi):
    """Sum over modes of phi (the table's Phi or Phi') at x = E_F - subband bottom.

    With the shoulder model, mode 0 mixes phi(x) and phi(x - anomaly_split).
    The x rows, in the order mode 0, shoulder, modes 1..n-1, go to phi as
    many at a time as fit in _PAIRS (mode, point) pairs, at least one, so
    memory does not grow with num_modes; they are summed left to right.
    """
    scalar_in = np.isscalar(effective_gate_voltage)
    v = np.atleast_1d(np.asarray(effective_gate_voltage, dtype=float))
    anomaly = params.anomaly_enabled
    modes = np.array([0] * (1 + anomaly) + list(range(1, params.num_modes)))
    step = max(1, _PAIRS // max(v.size, 1))
    for start in range(0, modes.size, step):
        block = modes[start:start + step].reshape((-1,) + (1,) * v.ndim)
        x = params.fermi_energy - params.subband_bottom(block, v)
        if anomaly and start <= 1 < start + len(x):  # the shoulder row
            x[1 - start] -= params.anomaly_split
        # one row is looked up as a 1-D x, so one mode gives an array that owns its data
        for row, value in enumerate(phi(x) if len(x) > 1 else [phi(x[0])], start):
            if row == 0:
                total = value
            elif row == 1 and anomaly:
                total = params.anomaly_weight * total + (1.0 - params.anomaly_weight) * value
            else:
                total = total + value
    return float(total[0]) if scalar_in else total


def conductance(effective_gate_voltage, params: DeviceParams) -> np.ndarray | float:
    """Linear-response conductance (units of 2e^2/h) at a gate voltage.

    Sum over modes of the transmission averaged against the thermal kernel
    (-df/dE) around E_F, read from the device's table.  Accepts scalars or
    arrays.
    """
    phi = _transmission_table(params.thermal_energy, params.tunnel_width)[0]
    return _mode_sum(effective_gate_voltage, params, phi)


def transconductance(effective_gate_voltage, params: DeviceParams) -> np.ndarray | float:
    """Analytic dG/dV_g (units (2e^2/h)/V) of the model conductance.

    lever_arm times the sum over modes of Phi', the logistic's derivative
    under the same thermal average as `conductance`, so it is consistent
    with finite differences of G to the table's accuracy.
    """
    phi = _transmission_table(params.thermal_energy, params.tunnel_width)[1]
    return params.lever_arm * _mode_sum(effective_gate_voltage, params, phi)


def differential_conductance(curve: Trace) -> Trace:
    """dG/dV_g by central finite differences (one-sided at the ends)."""
    if curve.axis_kind != GATE_AXIS:
        raise ValueError("differential conductance requires a gate-voltage curve")
    if len(curve) < 3:
        raise ValueError("need at least 3 points")
    v, g = curve.times, curve.conductance
    dg = np.empty_like(g)
    dg[1:-1] = (g[2:] - g[:-2]) / (v[2:] - v[:-2])
    dg[0] = (g[1] - g[0]) / (v[1] - v[0])
    dg[-1] = (g[-1] - g[-2]) / (v[-1] - v[-2])
    return Trace(GATE_AXIS, v, dg)
