"""Knobs of the test oracles' searches.

Only the test oracles and the benchmark import this module; no runtime
path searches.  The measures compute their state suprema exactly and the
diamond norm as one deterministic solve with a dual bound, and
:mod:`qtradeoff.measures` defines their result type.  The benchmark's
diamond workload still passes a :class:`SupremumStrategy` to
:func:`qtradeoff.measures.disturbance_estimate`, which never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SupremumStrategy"]


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
