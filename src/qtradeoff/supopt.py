"""Result record of the measures.

:class:`ExtremumEstimate` carries a value together with its argmax and how
it was obtained.

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
]


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

    ``params`` is the argmax: the maximizing state's Bloch vector for an
    exact state supremum, the 8 reals of the bipartite input for the
    diamond kind, empty for an average, the search point for "numeric".

    ``method`` says how the value was obtained: ``"exact"`` (closed-form
    or secular-equation supremum, or a closed-form average;
    ``certified_gap`` is 0), ``"certified"``
    (a solve of a concave problem; ``value + certified_gap`` is a dual
    upper bound on the supremum), ``"quadrature"`` (a fixed
    quadrature rule, not a supremum; ``certified_gap`` is 0) or
    ``"numeric"`` (the test oracles' scan plus refinement, whose gap is
    the best coarse-scan value minus the refined value).  A ``"numeric"``
    gap bounds nothing.
    """

    params: np.ndarray
    value: float
    certified_gap: float
    method: str = "numeric"

