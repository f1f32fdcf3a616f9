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

Both marginal channels have the replacement form
w * (1/2) + (1 - w) * rho, captured by :class:`MarginalChannelSpec`.
Induced measurements are materialized through the duality
tr(E' rho) = tr(E T_s'(rho)) rather than by building the dual map.

Closed-form curves (as functions of the measurement error d <= 1/2):
optimal frontier (1/2)(sqrt(1-d) - sqrt(d))^2, cloner
(1/4)(sqrt(2-3d) - sqrt(d))^2, swap 1/2 - d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Povm
from .measures import TradeoffPoint, TARGET_POVM
from .qmath import FLIP, ID2, ID4, dag, partial_trace, tensor
from .states import MAXIMALLY_MIXED, validate_density

__all__ = [
    "ClonerParams",
    "SwapParams",
    "MarginalChannelSpec",
    "cloner_channel",
    "cloner_marginals",
    "cloner_induced_povm",
    "cloner_system_channel_spec",
    "cloner_tradeoff_point",
    "cloner_tradeoff_curve",
    "swap_channel",
    "swap_marginals",
    "swap_induced_povm",
    "swap_system_channel_spec",
    "swap_tradeoff_point",
    "swap_tradeoff_curve",
    "optimal_frontier",
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
    """Replacement-form channel T(rho) = weight * rep + (1 - weight) * rho."""

    weight: float
    replacement: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight = {self.weight} outside [0, 1]")
        object.__setattr__(
            self, "replacement", validate_density(self.replacement))

    def apply(self, rho):
        rho = np.asarray(rho, dtype=complex)
        return self.weight * self.replacement * np.trace(rho) \
            + (1.0 - self.weight) * rho


def _povm_via_duality(apply_marginal) -> Povm:
    # E'_j[m, n] = tr(E_j T(|n><m|)); evaluates the dual map entrywise.
    elems = []
    for target in (TARGET_POVM.e1, TARGET_POVM.e2):
        e = np.zeros((2, 2), dtype=complex)
        for m in range(2):
            for n in range(2):
                basis = np.zeros((2, 2), dtype=complex)
                basis[n, m] = 1.0
                e[m, n] = np.trace(target @ apply_marginal(basis))
        elems.append(e)
    return Povm(elems[0], elems[1])


# ---------------------------------------------------------------------------
# Optimal universal asymmetric cloner
# ---------------------------------------------------------------------------

def cloner_channel(p: ClonerParams, rho) -> np.ndarray:
    """Two-qubit output of the cloning channel on input rho."""
    rho = validate_density(rho)
    w = p.a2 * ID4 + p.a1 * FLIP
    return w @ tensor(rho, MAXIMALLY_MIXED) @ w


def cloner_marginals(p: ClonerParams, rho):
    """(T_s(rho), T_s'(rho)): the kept system and the measured clone.

    Each marginal is a_i^2 * 1/2 + (1 - a_i^2) * rho with i = 1 for the
    system and i = 2 for the clone; this equals the corresponding partial
    trace of :func:`cloner_channel`.
    """
    rho = validate_density(rho)
    t_s = p.a1**2 * MAXIMALLY_MIXED + (1.0 - p.a1**2) * rho
    t_sp = p.a2**2 * MAXIMALLY_MIXED + (1.0 - p.a2**2) * rho
    return t_s, t_sp


def cloner_system_channel_spec(p: ClonerParams) -> MarginalChannelSpec:
    """The system marginal as a replacement-form channel."""
    return MarginalChannelSpec(p.a1**2, MAXIMALLY_MIXED)


def cloner_induced_povm(p: ClonerParams) -> Povm:
    """Measurement induced on the input by measuring the clone."""
    spec = MarginalChannelSpec(p.a2**2, MAXIMALLY_MIXED)
    return _povm_via_duality(spec.apply)


def cloner_tradeoff_point(p: ClonerParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) = (a2^2 / 2, a1^2 / 2)."""
    return TradeoffPoint(0.5 * p.a2**2, 0.5 * p.a1**2,
                         {"scheme": "cloner", "a1": p.a1, "a2": p.a2})


def cloner_tradeoff_curve(delta: float) -> float:
    """Cloner disturbance as a function of its measurement error."""
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta = {delta} outside [0, 1]")
    if delta >= 0.5:
        return 0.0
    return 0.25 * (np.sqrt(2.0 - 3.0 * delta) - np.sqrt(delta)) ** 2


# ---------------------------------------------------------------------------
# Coherent swap
# ---------------------------------------------------------------------------

def swap_channel(p: SwapParams, rho, ancilla=None) -> np.ndarray:
    """Two-qubit output exp(i t F)(rho (x) anc) exp(-i t F)."""
    rho = validate_density(rho)
    anc = MAXIMALLY_MIXED if ancilla is None else validate_density(ancilla)
    w = p.a2 * ID4 + 1j * p.a1 * FLIP
    return w @ tensor(rho, anc) @ dag(w)


def swap_marginals(p: SwapParams, rho, ancilla=None):
    """(T_s(rho), T_s'(rho)) via partial traces of the explicit channel.

    With the default maximally mixed ancilla these reduce to
    T_s = a1^2 anc + (1 - a1^2) rho and T_s' = (1 - a1^2) anc + a1^2 rho;
    for a general ancilla the commutator terms are kept.
    """
    out = swap_channel(p, rho, ancilla)
    return partial_trace(out, "second"), partial_trace(out, "first")


def swap_system_channel_spec(p: SwapParams) -> MarginalChannelSpec:
    """System marginal for the maximally mixed ancilla."""
    return MarginalChannelSpec(p.a1**2, MAXIMALLY_MIXED)


def swap_induced_povm(p: SwapParams) -> Povm:
    """Measurement induced on the input (maximally mixed ancilla), through
    the measured marginal a2^2 * 1/2 + (1 - a2^2) * rho."""
    spec = MarginalChannelSpec(p.a2**2, MAXIMALLY_MIXED)
    return _povm_via_duality(spec.apply)


def swap_tradeoff_point(p: SwapParams) -> TradeoffPoint:
    """Closed-form (delta, Delta) = ((1 - a1^2)/2, a1^2/2); ancilla 1/2."""
    a1sq = p.a1**2
    return TradeoffPoint(0.5 * (1.0 - a1sq), 0.5 * a1sq,
                         {"scheme": "swap", "t": p.t})


def swap_tradeoff_curve(delta: float) -> float:
    """Swap disturbance as a function of its measurement error."""
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta = {delta} outside [0, 1]")
    if delta >= 0.5:
        return 0.0
    return 0.5 - delta


# ---------------------------------------------------------------------------
# Optimal frontier
# ---------------------------------------------------------------------------

def optimal_frontier(delta: float) -> float:
    """Tight lower bound on the disturbance at measurement error delta."""
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta = {delta} outside [0, 1]")
    if delta >= 0.5:
        return 0.0
    return 0.5 * (np.sqrt(1.0 - delta) - np.sqrt(delta)) ** 2
