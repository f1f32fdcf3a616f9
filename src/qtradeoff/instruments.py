"""Two-outcome qubit instruments: Kraus pairs, induced POVMs and channels.

An instrument here is a pair of Kraus operators (K1, K2) satisfying
K1^dag K1 + K2^dag K2 = 1.  Two parametric families are provided:

* the general diagonal family
      K1 = sqrt(1 - b2^2) |1><1| + e^{i beta1} b1 |2><2|
      K2 = b2 |1><1| + e^{i beta2} sqrt(1 - b1^2) |2><2|
  with b1, b2 in [0, 1] and free phases, and

* the optimal family
      K1 = (sqrt(1 + g) |H><H| + e^{i beta} sqrt(1 - g) |V><V|) / sqrt(2)
      K2 = (e^{i beta} sqrt(1 - g) |H><H| + sqrt(1 + g) |V><V|) / sqrt(2)
  with g in [0, 1].  Outcome labels are fixed so that outcome j
  concentrates on basis state |j>; for g > 0 outcome 1 favors |H>.

Constructors build the Kraus entries directly from the closed-form
parametrization, so normalization holds to rounding error by
construction.  ``Instrument(k1, k2)`` takes an arbitrary Kraus pair and
checks its normalization.

Instances are frozen and their arrays are marked read-only; everything is
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import ID2, _as_matrix, dag

__all__ = [
    "ParamOutOfRange",
    "NotNormalized",
    "Instrument",
    "Povm",
    "DiagonalFamilyParams",
    "OptimalFamilyParams",
    "make_diagonal_instrument",
    "make_optimal_instrument",
    "povm_of",
    "apply_channel",
    "instrument_from_descriptor",
]

NORMALIZATION_TOL = 1e-10


class ParamOutOfRange(ValueError):
    """Raised when a family parameter violates its admissible range."""


class NotNormalized(ValueError):
    """Raised when a Kraus pair does not satisfy K1^dag K1 + K2^dag K2 = 1."""


def _readonly(a):
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def apply_channel(ins: Instrument, rho) -> np.ndarray:
    """Unselected state change: K1 rho K1^dag + K2 rho K2^dag, of one 2x2
    state or of each state of a stack (..., 2, 2), which gives the stack of
    images: ``apply_channel(ins, stack)[i]`` is
    ``apply_channel(ins, stack[i])`` bit for bit."""
    rho = np.asarray(rho, dtype=complex)
    return ins.k1 @ rho @ dag(ins.k1) + ins.k2 @ rho @ dag(ins.k2)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Two-outcome instrument given by a normalized Kraus pair (raises
    :class:`NotNormalized` with the measured deviation otherwise).
    ``ins(rho)`` applies its channel, :func:`apply_channel`, to a state or
    a stack of states."""

    k1: np.ndarray
    k2: np.ndarray

    __call__ = apply_channel
    # Read by measures._bloch_affine: one call maps all four probe states.
    _maps_stacks = True

    def __post_init__(self):
        k1 = _readonly(_as_matrix(self.k1, "k1"))
        k2 = _readonly(_as_matrix(self.k2, "k2"))
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.linalg.norm(dag(k1) @ k1 + dag(k2) @ k2 - ID2)
        # Written so that a deviation that overflows to NaN fails too.
        if not dev <= NORMALIZATION_TOL:
            raise NotNormalized(
                f"||K1^dag K1 + K2^dag K2 - 1|| = {dev:.3e} exceeds {NORMALIZATION_TOL:.0e}"
            )


@dataclass(frozen=True, eq=False)
class Povm:
    """Two-outcome POVM {E1, E2} of finite 2x2 matrices.  Neither E1 + E2 = 1
    nor positivity is checked; :func:`povm_of` and the schemes build POVMs
    with both, and :func:`~qtradeoff.measures.measurement_error_estimate`
    is exact for any Hermitian pair."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e1", _readonly(_as_matrix(self.e1, "e1")))
        object.__setattr__(self, "e2", _readonly(_as_matrix(self.e2, "e2")))


@dataclass(frozen=True)
class DiagonalFamilyParams:
    """Parameters (b1, b2, beta1, beta2) of the general diagonal family."""

    b1: float
    b2: float
    beta1: float = 0.0
    beta2: float = 0.0

    def __post_init__(self):
        for name in ("b1", "b2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParamOutOfRange(f"{name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class OptimalFamilyParams:
    """Parameters (gamma, beta) of the optimal family."""

    gamma: float
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ParamOutOfRange(f"gamma = {self.gamma} outside [0, 1]")


def make_diagonal_instrument(p: DiagonalFamilyParams) -> Instrument:
    """Instrument of the general diagonal family."""
    k1 = np.diag([np.sqrt(1.0 - p.b2**2), np.exp(1j * p.beta1) * p.b1])
    k2 = np.diag([p.b2, np.exp(1j * p.beta2) * np.sqrt(1.0 - p.b1**2)])
    return Instrument(k1, k2)


def make_optimal_instrument(p: OptimalFamilyParams) -> Instrument:
    """Instrument of the optimal family.

    For beta = 0 this coincides entrywise with the diagonal family at
    b1 = b2 = sqrt((1 - gamma) / 2).  The phase multiplies the minority
    component of each Kraus operator (the |V> part of K1 and the |H>
    part of K2), which keeps the channel's coherence factor real.
    """
    hi = np.sqrt(0.5 * (1.0 + p.gamma))
    lo = np.sqrt(0.5 * (1.0 - p.gamma))
    ph = np.exp(1j * p.beta)
    k1 = np.diag([hi, ph * lo])
    k2 = np.diag([ph * lo, hi])
    return Instrument(k1, k2)


def povm_of(ins: Instrument) -> Povm:
    """Induced POVM {E'_j = K_j^dag K_j}."""
    return Povm(dag(ins.k1) @ ins.k1, dag(ins.k2) @ ins.k2)


# ---------------------------------------------------------------------------
# JSON descriptor interface (CLI and file input)
# ---------------------------------------------------------------------------

def _json_number(v, where, lo=None, hi=math.inf):
    # Float value of a JSON number.  Non-numbers, booleans, NaN, Infinity,
    # integers beyond float range and values outside [lo, hi] are rejected.
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValueError(f"{where}: expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{where}: expected a finite number")
    if lo is not None and not (lo <= f <= hi):
        raise ValueError(f"{where}: value {f} outside [{lo}, {hi}]")
    return f


def _reject_unknown_fields(obj, known, where):
    # The first key of a JSON object that the reader does not read: a
    # misspelt field would otherwise fall back to its default unseen.
    for name in obj:
        if name not in known:
            raise ValueError(f"{where}.{name}: unknown field")


def _descriptor_matrix(obj, path):
    # A [2][2][2] nested list of [re, im] pairs.  Every leaf goes through
    # _json_number, so a string, boolean or null entry is named, not
    # coerced.
    def entries(v, index):
        where = "".join(f"[{i}]" for i in index)
        if len(index) == 3:
            return _json_number(v, f"{path}: entry {where}")
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ValueError(f"{path}: expected shape [2][2][2] ([re, im] "
                             f"per entry), got {v!r} at {where or 'the top'}")
        return [entries(x, index + (i,)) for i, x in enumerate(v)]

    arr = np.array(entries(obj, ()))
    return arr[..., 0] + 1j * arr[..., 1]


def instrument_from_descriptor(desc: dict) -> Instrument:
    """Build an instrument from a JSON-style descriptor.

    Supported forms::

        {"family": "optimal", "gamma": g, "beta": b}
        {"family": "diagonal", "b1": ., "b2": ., "beta1": ., "beta2": .}
        {"family": "raw", "k1": [[[re, im], ...], ...], "k2": ...}

    Validation errors name the offending field, and a field the family
    does not read is rejected.
    """
    if not isinstance(desc, dict):
        raise ValueError("instrument: expected a JSON object")
    family = desc.get("family")
    if family == "optimal":
        _reject_unknown_fields(desc, ("family", "gamma", "beta"), "instrument")
        gamma = _json_number(desc.get("gamma"), "instrument.gamma", 0.0, 1.0)
        beta = _json_number(desc.get("beta", 0.0), "instrument.beta")
        return make_optimal_instrument(OptimalFamilyParams(gamma, beta))
    if family == "diagonal":
        _reject_unknown_fields(desc, ("family", "b1", "b2", "beta1", "beta2"),
                               "instrument")
        b1 = _json_number(desc.get("b1"), "instrument.b1", 0.0, 1.0)
        b2 = _json_number(desc.get("b2"), "instrument.b2", 0.0, 1.0)
        beta1 = _json_number(desc.get("beta1", 0.0), "instrument.beta1")
        beta2 = _json_number(desc.get("beta2", 0.0), "instrument.beta2")
        return make_diagonal_instrument(DiagonalFamilyParams(b1, b2, beta1, beta2))
    if family == "raw":
        _reject_unknown_fields(desc, ("family", "k1", "k2"), "instrument")
        if "k1" not in desc or "k2" not in desc:
            raise ValueError("instrument: raw family requires fields k1 and k2")
        k1 = _descriptor_matrix(desc["k1"], "instrument.k1")
        k2 = _descriptor_matrix(desc["k2"], "instrument.k2")
        return Instrument(k1, k2)
    raise ValueError(
        f"instrument.family: expected 'optimal', 'diagonal' or 'raw', got {family!r}"
    )
