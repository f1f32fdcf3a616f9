"""Fixed-size complex linear algebra for single-qubit operators.

All operators are plain 2x2 numpy arrays: the Pauli matrices, the
adjoint and the shape and finiteness check of a 2x2 input.  The
two-qubit matrices of the diamond solve are built with numpy where they
are used (:mod:`qtradeoff.measures`).

Inputs are never mutated and returned arrays are freshly allocated, so
every function here is a pure function.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "dag",
]

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def dag(m):
    """Hermitian adjoint m^dag."""
    return np.asarray(m).conj().T
