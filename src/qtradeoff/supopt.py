"""Result records of the measures and the parabolic extremum fit.

:class:`ExtremumEstimate` carries a value together with its argmax and how
it was obtained; :func:`parabolic_refine` fits a parabola through samples
around an extremum (the experiment's vertex estimate).

No runtime path searches: the measures compute their state suprema
exactly and the diamond norm as one deterministic solve with a dual bound
(:mod:`qtradeoff.measures`).  The grid plus Nelder-Mead searches that the
tests use as independent oracles live with the tests.
:class:`SupremumStrategy` holds their knobs; the benchmark's diamond
workload still builds one and passes it to
:func:`qtradeoff.measures.disturbance_estimate`, which never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupremumStrategy",
    "ExtremumEstimate",
    "DegenerateFit",
    "parabolic_refine",
]


class DegenerateFit(ValueError):
    """Raised when a parabolic fit has (numerically) no quadratic part."""


@dataclass(frozen=True)
class SupremumStrategy:
    """Knobs for the coarse-scan + refine maximizers of the test oracles.

    coarse_grid_points is the number of samples per angle (the bipartite
    maximizer draws coarse_grid_points^2 seeded random points instead of a
    mesh).  refine_iterations bounds the Nelder-Mead
    iteration count per parameter.  No runtime path reads a strategy; the
    benchmark's diamond workload still passes one to
    :func:`qtradeoff.measures.disturbance_estimate`.
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
    ``"numeric"`` (a fit or a search: :func:`parabolic_refine`, whose
    ``certified_gap`` is the best sample minus the vertex value, and the
    test oracles' scan plus refinement, whose gap is the best coarse-scan
    value minus the refined value).  A ``"numeric"`` gap bounds nothing.
    """

    params: np.ndarray
    value: float
    certified_gap: float
    method: str = "numeric"


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
