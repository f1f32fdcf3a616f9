"""Fixed-size complex linear algebra for single-qubit operators.

All operators are plain 2x2 numpy arrays.  The Hermitian eigenvalues are
a closed form.  The two-qubit matrices of the diamond solve are built
with numpy where they are used (:mod:`qtradeoff.measures`).

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
    "NotHermitian",
    "HERMITICITY_RTOL",
    "dag",
    "herm_eigvals",
]

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Relative Hermiticity tolerance: ||m - m^dag||_F <= HERMITICITY_RTOL * ||m||_F.
HERMITICITY_RTOL = 1e-10


class NotHermitian(ValueError):
    """Raised when an operation that needs a Hermitian matrix gets none."""


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


def _check_hermitian(a, name):
    dev = np.linalg.norm(a - a.conj().T)
    scale = np.linalg.norm(a)
    # Relative tolerance, with an absolute floor so matrices that are pure
    # rounding noise (e.g. a channel difference that is analytically zero)
    # still count as Hermitian.
    if dev > max(HERMITICITY_RTOL * scale, 1e-14):
        raise NotHermitian(
            f"{name} is not Hermitian: ||m - m^dag|| = {dev:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * ||m|| = {HERMITICITY_RTOL * scale:.3e}"
        )


def herm_eigvals(m):
    """Eigenvalues of a Hermitian 2x2 matrix, sorted descending.

    The input must be Hermitian to within ``HERMITICITY_RTOL`` (relative,
    Frobenius norm); it is symmetrized as (m + m^dag)/2 before solving to
    suppress accumulated rounding.  Raises :class:`NotHermitian` otherwise.
    The spectrum is the closed form mid +- r.
    """
    a = _as_matrix(m, "m")
    _check_hermitian(a, "m")
    h = 0.5 * (a + a.conj().T)
    h00, h11 = h[0, 0].real, h[1, 1].real
    mid = 0.5 * (h00 + h11)
    r = np.hypot(0.5 * (h00 - h11), abs(h[0, 1]))
    return np.array([mid + r, mid - r])
