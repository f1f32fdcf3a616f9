"""Supremum engine: maximize scalar objectives over pure qubit states and
over bipartite (two-qubit) pure states, plus a parabolic extremum fit.

Strategy: a coarse deterministic scan brackets the maximum, then
Nelder-Mead refinement is started from the best candidates.  Derivative
free refinement is used on purpose, trace-norm objectives are not smooth
at eigenvalue crossings.  The returned value is never below the best
coarse-scan value, and identical inputs always give identical outputs
(multistart candidates derive deterministically from the strategy).

The measures compute their state suprema exactly
(:mod:`qtradeoff.measures`); the bipartite search serves only the
diamond-norm kind, and :func:`maximize_over_pure_states` is kept as the
independent oracle the tests check the exact suprema against.

Objectives must be pure functions; the engine may evaluate them from
multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
    maximizer draws coarse_grid_points^2 seeded random directions
    instead of a mesh).  refine_iterations bounds the Nelder-Mead
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
    """Result of a maximization: argmax parameters, value, and the gap
    between the best coarse-scan value and the refined value (<= 0 means
    refinement only improved).

    ``method`` says how the value was obtained: ``"exact"`` (closed-form
    or secular-equation supremum; ``certified_gap`` is 0), ``"quadrature"``
    (a fixed quadrature rule, not a supremum; ``certified_gap`` is 0) or
    ``"numeric"`` (scan plus refinement).
    """

    params: np.ndarray
    value: float
    certified_gap: float
    method: str = "numeric"


DEFAULT_STRATEGY = SupremumStrategy()


def _refine(neg, x0, strategy):
    opts = {
        "maxiter": strategy.refine_iterations * len(x0),
        "xatol": 1e-7,
        "fatol": 0.01 * strategy.tolerance,
    }
    return minimize(neg, x0, method="Nelder-Mead", options=opts)


def maximize_over_pure_states(f, strategy=None) -> ExtremumEstimate:
    """Maximize f(rho) over pure qubit states rho.

    The state is parametrized by Bloch angles (theta, phi); the coarse
    stage scans an n x n spherical grid.
    """
    s = strategy or DEFAULT_STRATEGY
    n = s.coarse_grid_points
    thetas = np.linspace(0.0, np.pi, n)
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)

    vals = np.empty((n, n))
    for i, th in enumerate(thetas):
        for j, ph in enumerate(phis):
            vals[i, j] = f(pure_state(th, ph))

    flat = vals.ravel()
    order = np.argsort(flat, kind="stable")[::-1]
    grid_best = float(flat[order[0]])

    best_val = grid_best
    i0, j0 = np.unravel_index(order[0], vals.shape)
    best_params = np.array([thetas[i0], phis[j0]])

    def neg(x):
        return -f(pure_state(x[0], x[1]))

    for idx in order[: s.multistarts]:
        i, j = np.unravel_index(idx, vals.shape)
        res = _refine(neg, np.array([thetas[i], phis[j]]), s)
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_params = np.asarray(res.x, dtype=float)

    return ExtremumEstimate(best_params, best_val, grid_best - best_val)


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


def _vec_of(x):
    v = x[:4] + 1j * x[4:]
    n = np.linalg.norm(v)
    if n < 1e-12:
        return None
    return v / n


def maximize_over_bipartite_pure_states(f, strategy=None, extra_starts=()) -> ExtremumEstimate:
    """Maximize f(v) over unit vectors v in C^4 (modulo global phase).

    f receives a normalized complex 4-vector.  The coarse stage uses
    coarse_grid_points^2 seeded Gaussian directions; refinement always
    also starts from the computational basis vectors, the four maximally
    entangled (Bell) vectors, and any caller-supplied ``extra_starts``.
    """
    s = strategy or DEFAULT_STRATEGY
    n_samples = s.coarse_grid_points**2
    seed = np.random.SeedSequence(
        entropy=0x51B0_11AD,
        spawn_key=(s.coarse_grid_points, s.refine_iterations, s.multistarts),
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.standard_normal((n_samples, 8))
    samples = raw[:, :4] + 1j * raw[:, 4:]
    samples /= np.linalg.norm(samples, axis=1)[:, None]

    vals = np.array([f(v) for v in samples])
    order = np.argsort(vals, kind="stable")[::-1]
    grid_best = float(vals[order[0]])

    starts = [samples[i] for i in order[: s.multistarts]]
    starts.extend(_BASIS4)
    starts.extend(_BELL_STATES)
    starts.extend(np.asarray(v, dtype=complex) for v in extra_starts)

    best_val = grid_best
    best_vec = samples[order[0]]

    def neg(x):
        v = _vec_of(x)
        if v is None:
            return np.inf
        return -f(v)

    for v0 in starts:
        v0 = v0 / np.linalg.norm(v0)
        x0 = np.concatenate([v0.real, v0.imag])
        res = _refine(neg, x0, s)
        v = _vec_of(res.x)
        if v is not None and -res.fun > best_val:
            best_val = float(-res.fun)
            best_vec = v

    params = np.concatenate([best_vec.real, best_vec.imag])
    return ExtremumEstimate(params, best_val, grid_best - best_val)


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
