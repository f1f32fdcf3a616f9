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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Povm
from .measures import TradeoffPoint, TARGET_POVM
from .qmath import ID2
from .states import MAXIMALLY_MIXED, validate_density

__all__ = [
    "ClonerParams",
    "SwapParams",
    "MarginalChannelSpec",
    "cloner_induced_povm",
    "cloner_system_channel_spec",
    "cloner_tradeoff_point",
    "cloner_tradeoff_curve",
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


def _induced_povm(spec: MarginalChannelSpec) -> Povm:
    # The target measurement after T: E'_j = w tr(E_j rep) 1 + (1 - w) E_j.
    w = spec.weight
    return Povm(*(w * np.trace(e @ spec.replacement) * ID2 + (1.0 - w) * e
                  for e in (TARGET_POVM.e1, TARGET_POVM.e2)))


# ---------------------------------------------------------------------------
# Optimal universal asymmetric cloner
# ---------------------------------------------------------------------------

def cloner_system_channel_spec(p: ClonerParams) -> MarginalChannelSpec:
    """The system marginal as a replacement-form channel."""
    return MarginalChannelSpec(p.a1**2, MAXIMALLY_MIXED)


def cloner_induced_povm(p: ClonerParams) -> Povm:
    """Measurement induced on the input by measuring the clone."""
    return _induced_povm(MarginalChannelSpec(p.a2**2, MAXIMALLY_MIXED))


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

def swap_system_channel_spec(p: SwapParams) -> MarginalChannelSpec:
    """System marginal for the maximally mixed ancilla."""
    return MarginalChannelSpec(p.a1**2, MAXIMALLY_MIXED)


def swap_induced_povm(p: SwapParams) -> Povm:
    """Measurement induced on the input (maximally mixed ancilla), through
    the measured marginal a2^2 * 1/2 + (1 - a2^2) * rho."""
    return _induced_povm(MarginalChannelSpec(p.a2**2, MAXIMALLY_MIXED))


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
