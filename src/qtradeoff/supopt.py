"""Supremum engine: maximize scalar objectives over pure qubit states and
over bipartite (two-qubit) pure states, plus a parabolic extremum fit.

Strategy: a coarse deterministic scan brackets the maximum, then
Nelder-Mead refinement is started from the best candidates.  Derivative
free refinement is used on purpose, trace-norm objectives are not smooth
at eigenvalue crossings.  The returned value is never below the best
coarse-scan value, and identical inputs always give identical outputs
(multistart candidates derive deterministically from the strategy).

No runtime path searches: the measures compute their state suprema
exactly and the diamond norm as one deterministic solve with a dual
bound (:mod:`qtradeoff.measures`).  :func:`maximize_over_pure_states` and
:func:`maximize_over_bipartite_pure_states` are kept as the independent
oracles the tests check the measures against.  They import
``scipy.optimize`` on their first call, so importing this module does not.

Objectives must be pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import pure_state

__all__ = [
    "SupremumStrategy",
    "ExtremumEstimate",
    "DegenerateFit",
    "maximize_over_pure_states",
    "maximize_over_bipartite_pure_states",
    "parabolic_refine",
]


class DegenerateFit(ValueError):
    """Raised when a parabolic fit has (numerically) no quadratic part."""


@dataclass(frozen=True)
class SupremumStrategy:
    """Knobs for the coarse-scan + refine maximizers.

    coarse_grid_points is the number of samples per angle (the bipartite
    maximizer draws coarse_grid_points^2 seeded random points instead of a
    mesh).  refine_iterations bounds the Nelder-Mead
    iteration count per parameter.
    """

    coarse_grid_points: int = 64
    refine_iterations: int = 60
    tolerance: float = 1e-8
    multistarts: int = 8

    def __post_init__(self):
        for name in ("coarse_grid_points", "refine_iterations", "multistarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class ExtremumEstimate:
    """Result of a maximization: argmax parameters, value and gap.

    ``method`` says how the value was obtained: ``"exact"`` (closed-form
    or secular-equation supremum; ``certified_gap`` is 0), ``"certified"``
    (a solve of a concave problem; ``value + certified_gap`` is a dual
    upper bound on the supremum), ``"quadrature"`` (a fixed
    quadrature rule, not a supremum; ``certified_gap`` is 0) or
    ``"numeric"`` (scan plus refinement).  For ``"numeric"``,
    ``certified_gap`` is the best coarse-scan value minus the refined value
    (<= 0 means refinement only improved); it bounds nothing.
    """

    params: np.ndarray
    value: float
    certified_gap: float
    method: str = "numeric"


DEFAULT_STRATEGY = SupremumStrategy()


def _refine(neg, x0, strategy):
    from scipy.optimize import minimize

    opts = {
        "maxiter": strategy.refine_iterations * len(x0),
        "xatol": 1e-7,
        "fatol": 0.01 * strategy.tolerance,
    }
    return minimize(neg, x0, method="Nelder-Mead", options=opts)


def _seeded_rng(s, entropy):
    seed = np.random.SeedSequence(
        entropy=entropy,
        spawn_key=(s.coarse_grid_points, s.refine_iterations, s.multistarts),
    )
    return np.random.Generator(np.random.PCG64(seed))


def _multistart(neg, params, vals, extra_starts, s, decode):
    # Refine from the `multistarts` best scanned params, then from the
    # extra starts; never return less than the best scanned value.
    order = np.argsort(vals, kind="stable")[::-1]
    grid_best = float(vals[order[0]])
    best_val, best = grid_best, params[order[0]]
    for x0 in [params[i] for i in order[: s.multistarts]] + list(extra_starts):
        res = _refine(neg, x0, s)
        if -res.fun > best_val:
            best_val, best = float(-res.fun), decode(res.x)
    return ExtremumEstimate(best, best_val, grid_best - best_val)


def maximize_over_pure_states(f, strategy=None) -> ExtremumEstimate:
    """Maximize f(rho) over pure qubit states rho.

    The state is parametrized by Bloch angles (theta, phi); the coarse
    stage scans an n x n spherical grid.
    """
    s = strategy or DEFAULT_STRATEGY
    n = s.coarse_grid_points
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, n),
                         np.linspace(0.0, 2.0 * np.pi, n, endpoint=False),
                         indexing="ij")
    params = np.column_stack([th.ravel(), ph.ravel()])
    vals = np.array([f(pure_state(*x)) for x in params])
    return _multistart(lambda x: -f(pure_state(x[0], x[1])), params, vals,
                       (), s, lambda x: np.asarray(x, dtype=float))


_BELL_STATES = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)

_BASIS4 = np.eye(4, dtype=complex)


def _reals(v):
    # 8 reals (real parts, then imaginary parts) of v normalized.
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.concatenate([v.real, v.imag])


def maximize_over_bipartite_pure_states(f, strategy=None, extra_starts=()) -> ExtremumEstimate:
    """Maximize f(v) over unit vectors v in C^4 (modulo global phase).

    f receives a normalized complex 4-vector; ``params`` holds the real
    parts, then the imaginary parts, of the best v.  The coarse stage uses
    coarse_grid_points^2 seeded Gaussian directions; refinement always
    also starts from the computational basis vectors, the four maximally
    entangled (Bell) vectors, and any caller-supplied ``extra_starts``.
    """
    s = strategy or DEFAULT_STRATEGY
    rng = _seeded_rng(s, 0x51B0_11AD)
    raw = rng.standard_normal((s.coarse_grid_points**2, 8))
    samples = raw[:, :4] + 1j * raw[:, 4:]
    samples /= np.linalg.norm(samples, axis=1)[:, None]

    def neg(x):
        v = x[:4] + 1j * x[4:]
        n = np.linalg.norm(v)
        return np.inf if n < 1e-12 else -f(v / n)

    starts = [_reals(v) for v in (*_BASIS4, *_BELL_STATES, *extra_starts)]
    return _multistart(neg, np.concatenate([samples.real, samples.imag], axis=1),
                       np.array([f(v) for v in samples]), starts, s,
                       lambda x: _reals(x[:4] + 1j * x[4:]))


def parabolic_refine(points) -> ExtremumEstimate:
    """Least-squares parabola through (x, y) samples around an extremum.

    Returns the vertex location and value; ``certified_gap`` is the best
    sampled y minus the vertex value.  Raises :class:`DegenerateFit` when
    the quadratic coefficient is numerically zero (e.g. collinear data).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("parabolic_refine needs at least 3 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.unique(x).size < 3:
        raise ValueError("parabolic_refine needs at least 3 distinct x values")
    a, b, c = np.polyfit(x, y, 2)
    if abs(a) < 1e-12:
        raise DegenerateFit(f"quadratic coefficient {a:.3e} is numerically zero")
    xv = -b / (2.0 * a)
    yv = c - b * b / (4.0 * a)
    return ExtremumEstimate(np.array([xv]), float(yv), float(np.max(y) - yv))
