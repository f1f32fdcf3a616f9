"""Reference measurement schemes and closed-form tradeoff curves.

Two standard procedures serve as baselines for the optimal instruments:

* the optimal universal asymmetric cloner, the two-qubit channel
      T_clo(rho) = (a2 1 + a1 F)(rho (x) 1/2)(a2 1 + a1 F)
  with a1^2 + a2^2 + a1 a2 = 1 and F the flip operator; the system keeps
  the first output and the target measurement is applied to the second;

* the coherent swap, a partial exchange with an ancilla
      T_cs(rho) = (a2 1 + i a1 F)(rho (x) anc)(a2 1 - i a1 F)
  with a1 = sin t, a2 = cos t, t in [0, pi/2].  For the tradeoff curve
  the ancilla is the maximally mixed state (the optimal choice).

Both marginal channels, the kept system and the measured output, have
the replacement form w * (1/2) + (1 - w) * rho, captured by
:class:`MarginalChannelSpec`: w = a1^2 for the kept system of either
scheme, and w = a2^2 for the measured output.  Only these marginals are
built; the two-qubit channels are not.  A measurement E applied after a
replacement channel induces E' = w tr(E rep) 1 + (1 - w) E on the input,
the dual of the channel, from tr(E' rho) = tr(E T_s'(rho)).

Closed-form curves (as functions of the measurement error d <= 1/2):
optimal frontier (1/2)(sqrt(1-d) - sqrt(d))^2, cloner
(1/4)(sqrt(2-3d) - sqrt(d))^2, swap 1/2 - d.

Each scheme's closed-form (delta, Delta) point is stated here once, the
optimal and diagonal instrument families' included; :func:`scheme_point`
gives the POVM, channel and closed-form point of one swept value and
:func:`sweep` the rows that ``qtradeoff sweep`` writes and ``verify`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import (
    DiagonalFamilyParams, OptimalFamilyParams, Povm, make_diagonal_instrument,
    make_optimal_instrument, povm_of)
from .measures import (
    HS_TO_TRACE_NORM_SCALE, TARGET_POVM, MeasureKind, TradeoffPoint,
    diagonal_channel_disturbance_exact, disturbance, measurement_error)
from .qmath import ID2
from .states import MAXIMALLY_MIXED, validate_density

__all__ = [
    "ClonerParams",
    "SwapParams",
    "MarginalChannelSpec",
    "optimal_tradeoff_point",
    "diagonal_tradeoff_point",
    "cloner_induced_povm",
    "cloner_system_channel_spec",
    "cloner_tradeoff_point",
    "cloner_tradeoff_curve",
    "swap_induced_povm",
    "swap_system_channel_spec",
    "swap_tradeoff_point",
    "swap_tradeoff_curve",
    "optimal_frontier",
    "scheme_point",
    "sweep",
]

_CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class ClonerParams:
    """Cloner amplitudes (a1, a2) with a1^2 + a2^2 + a1 a2 = 1."""

    a1: float
    a2: float

    def __post_init__(self):
        dev = abs(self.a1**2 + self.a2**2 + self.a1 * self.a2 - 1.0)
        if dev > _CONSTRAINT_TOL:
            raise ValueError(
                f"a1^2 + a2^2 + a1 a2 = 1 violated by {dev:.3e}")

    @classmethod
    def from_a2(cls, a2: float) -> "ClonerParams":
        """Solve the constraint for the nonnegative a1 given a2 in [0, 1]."""
        if not (0.0 <= a2 <= 1.0):
            raise ValueError(f"a2 = {a2} outside [0, 1]")
        a1 = 0.5 * (-a2 + np.sqrt(4.0 - 3.0 * a2**2))
        return cls(a1, a2)


@dataclass(frozen=True)
class SwapParams:
    """Swap angle t in [0, pi/2]; a1 = sin t, a2 = cos t."""

    t: float

    def __post_init__(self):
        if not (0.0 <= self.t <= 0.5 * np.pi):
            raise ValueError(f"t = {self.t} outside [0, pi/2]")

    @property
    def a1(self):
        return float(np.sin(self.t))

    @property
    def a2(self):
        return float(np.cos(self.t))


@dataclass(frozen=True)
class MarginalChannelSpec:
    """Replacement-form channel T(rho) = weight * rep + (1 - weight) * rho,
    applied by calling it: ``spec(rho)`` is ``spec.apply(rho)``."""

    weight: float
    replacement: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight = {self.weight} outside [0, 1]")
        object.__setattr__(
            self, "replacement", validate_density(self.replacement))

    def apply(self, rho):
        """T(rho) = weight * tr(rho) * rep + (1 - weight) * rho, of one 2x2
        state or of each state of a stack (..., 2, 2), the trace taken over
        the last two axes: ``spec.apply(stack)[i]`` is
        ``spec.apply(stack[i])`` bit for bit."""
        rho = np.asarray(rho, dtype=complex)
        tr = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
        return self.weight * self.replacement * tr + (1.0 - self.weight) * rho

    __call__ = apply
    # Read by measures._bloch_affine: one call maps all four probe states.
    _maps_stacks = True


# ---------------------------------------------------------------------------
# Optimal and diagonal instrument families
# ---------------------------------------------------------------------------

def optimal_tradeoff_point(p: OptimalFamilyParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) = ((1 - g)/2, (1 - sqrt(1 - g^2) cos beta)/2)
    of the optimal family; on the frontier at beta = 0."""
    g = p.gamma
    return TradeoffPoint(0.5 * (1.0 - g),
                         0.5 * (1.0 - np.sqrt(1.0 - g**2) * np.cos(p.beta)))


def diagonal_tradeoff_point(p: DiagonalFamilyParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) of the diagonal family: delta =
    max(b1^2, b2^2), and Delta from the channel's coherence factor
    (:func:`~qtradeoff.measures.diagonal_channel_disturbance_exact`)."""
    return TradeoffPoint(
        max(p.b1**2, p.b2**2),
        diagonal_channel_disturbance_exact(make_diagonal_instrument(p)))


# ---------------------------------------------------------------------------
# Marginals of the cloner and of the swap (maximally mixed ancilla)
# ---------------------------------------------------------------------------

def cloner_system_channel_spec(p: ClonerParams | SwapParams
                               ) -> MarginalChannelSpec:
    """The kept system's marginal, w = a1^2, of the cloner or the swap."""
    return MarginalChannelSpec(p.a1**2, MAXIMALLY_MIXED)


def cloner_induced_povm(p: ClonerParams | SwapParams) -> Povm:
    """Measurement induced on the input through the measured marginal,
    w = a2^2, of the cloner or the swap."""
    # E'_j = w tr(E_j rep) 1 + (1 - w) E_j; the spec checks w in [0, 1].
    w = MarginalChannelSpec(p.a2**2, MAXIMALLY_MIXED).weight
    return Povm(*(w * np.trace(e @ MAXIMALLY_MIXED) * ID2 + (1.0 - w) * e
                  for e in (TARGET_POVM.e1, TARGET_POVM.e2)))


# Both schemes' marginals are these, each in its own (a1, a2).
swap_system_channel_spec = cloner_system_channel_spec
swap_induced_povm = cloner_induced_povm


def _curve(delta, below_half):
    # A tradeoff curve: below_half(delta) below 1/2, 0 from there to 1.
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta = {delta} outside [0, 1]")
    if delta >= 0.5:
        return 0.0
    return below_half(delta)


# ---------------------------------------------------------------------------
# Optimal universal asymmetric cloner
# ---------------------------------------------------------------------------

def cloner_tradeoff_point(p: ClonerParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) = (a2^2 / 2, a1^2 / 2)."""
    return TradeoffPoint(0.5 * p.a2**2, 0.5 * p.a1**2)


def cloner_tradeoff_curve(delta: float) -> float:
    """Cloner disturbance as a function of its measurement error."""
    return _curve(delta, lambda d: 0.25 * (np.sqrt(2.0 - 3.0 * d) - np.sqrt(d)) ** 2)


# ---------------------------------------------------------------------------
# Coherent swap
# ---------------------------------------------------------------------------

def swap_tradeoff_point(p: SwapParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) = ((1 - a1^2)/2, a1^2/2); ancilla 1/2."""
    a1sq = p.a1**2
    return TradeoffPoint(0.5 * (1.0 - a1sq), 0.5 * a1sq)


def swap_tradeoff_curve(delta: float) -> float:
    """Swap disturbance as a function of its measurement error."""
    return _curve(delta, lambda d: 0.5 - d)


# ---------------------------------------------------------------------------
# Optimal frontier
# ---------------------------------------------------------------------------

def optimal_frontier(delta: float) -> float:
    """Tight lower bound on the disturbance at measurement error delta."""
    return _curve(delta, lambda d: 0.5 * (np.sqrt(1.0 - d) - np.sqrt(d)) ** 2)


# ---------------------------------------------------------------------------
# One swept point of each scheme
# ---------------------------------------------------------------------------

def scheme_point(scheme, value):
    """(POVM, channel, closed-form point) of one swept parameter value:
    gamma of the optimal family, b1 = b2 of the diagonal family (phases
    0), a2 of the cloner or t of the swap."""
    if scheme == "optimal":
        p = OptimalFamilyParams(value)
        ins = make_optimal_instrument(p)
        return povm_of(ins), ins, optimal_tradeoff_point(p)
    if scheme == "diagonal":
        p = DiagonalFamilyParams(value, value)
        ins = make_diagonal_instrument(p)
        return povm_of(ins), ins, diagonal_tradeoff_point(p)
    if scheme == "cloner":
        p = ClonerParams.from_a2(value)
        return (cloner_induced_povm(p), cloner_system_channel_spec(p),
                cloner_tradeoff_point(p))
    if scheme == "swap":
        p = SwapParams(value)
        return (swap_induced_povm(p), swap_system_channel_spec(p),
                swap_tradeoff_point(p))
    raise ValueError(f"unknown scheme {scheme!r}")


def _sweep_row(scheme, value, kind):
    povm, channel, point = scheme_point(scheme, value)
    Delta = point.Delta
    if kind == MeasureKind.WORST_HS:
        Delta = Delta / HS_TO_TRACE_NORM_SCALE
    elif kind == MeasureKind.AVG_TRACE and scheme in ("optimal", "diagonal"):
        # Replacement channels disturb every pure state equally; diagonal
        # channels scale with |sin theta|, whose surface average is pi/4.
        Delta = Delta * np.pi / 4.0
    elif kind == MeasureKind.DIAMOND:
        Delta = None
    return (value, point.delta, Delta, measurement_error(povm),
            disturbance(channel, kind))


def sweep(scheme, steps, kind=MeasureKind.WORST_TRACE):
    """Rows (value, delta_closed, Delta_closed, delta, Delta) at ``steps``
    even values of the scheme's parameter, in [0, pi/2] for the swap's t and
    [0, 1] otherwise: the kind's closed-form point (Delta None for the
    diamond kind, which has none), then the computed measures.  The grid is
    built by the call, so numpy's error for a count too large comes from
    it; each row is computed as it is read."""
    values = np.linspace(0.0, 0.5 * np.pi if scheme == "swap" else 1.0, steps)
    return (_sweep_row(scheme, float(v), kind) for v in values)
