"""Independent numeric oracles for the exact and certified measures.

Maximize scalar objectives over pure qubit states and over bipartite
(two-qubit) pure states.  A coarse deterministic scan brackets the
maximum, then Nelder-Mead refinement is started from the best candidates.
Derivative-free refinement is used on purpose: trace-norm objectives are
not smooth at eigenvalue crossings.  The returned value is never below
the best coarse-scan value, and identical inputs always give identical
outputs (multistart candidates derive deterministically from the
strategy).

No part of the package searches; the tests check the measures against
these maximizers.  Objectives must be pure functions.
"""

import numpy as np
from scipy.optimize import minimize

from qtradeoff.states import pure_state
from qtradeoff.supopt import ExtremumEstimate, SupremumStrategy

DEFAULT_STRATEGY = SupremumStrategy()


def _refine(neg, x0, strategy):
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
