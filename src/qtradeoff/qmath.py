"""Fixed-size complex linear algebra for one- and two-qubit operators.

All operators are plain numpy arrays: 2x2 for single-qubit objects and 4x4
for two-qubit objects.  The Hermitian eigenvalues are a closed form at
size 2 and ``numpy.linalg.eigvalsh`` at size 4.

Tensor index convention: the first factor is the slow index, i.e.
``tensor(a, b)[(i, k), (j, l)] == a[i, j] * b[k, l]`` with the pair
``(i, k)`` flattened row-major to ``2 * i + k``.  This matches ``np.kron``.

Inputs are never mutated and returned arrays are freshly allocated, so
every function here is a pure function.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "ID4",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "FLIP",
    "NotHermitian",
    "HERMITICITY_RTOL",
    "dag",
    "tensor",
    "partial_trace",
    "herm_eigvals",
    "trace_norm",
]

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Two-qubit flip (swap) operator: FLIP @ (a kron b) @ FLIP == b kron a.
FLIP = np.zeros((4, 4), dtype=complex)
for _i in range(2):
    for _j in range(2):
        FLIP[2 * _j + _i, 2 * _i + _j] = 1.0
del _i, _j

# Relative Hermiticity tolerance: ||m - m^dag||_F <= HERMITICITY_RTOL * ||m||_F.
HERMITICITY_RTOL = 1e-10


class NotHermitian(ValueError):
    """Raised when an operation that needs a Hermitian matrix gets none."""


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def dag(m):
    """Hermitian adjoint m^dag."""
    return np.asarray(m).conj().T


def tensor(a, b):
    """Tensor (Kronecker) product of two 2x2 matrices, first factor slow."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("tensor expects two 2x2 matrices")
    return np.kron(a, b)


def partial_trace(m, which="second"):
    """Trace out one tensor factor of a 4x4 two-qubit operator.

    ``which`` selects the factor that is traced over: ``"first"`` leaves
    the second qubit, ``"second"`` leaves the first.  The total trace is
    preserved.
    """
    a = _as_matrix(m, "m")
    if a.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {a.shape}")
    r = a.reshape(2, 2, 2, 2)
    if which == "second":
        return np.einsum("ikjk->ij", r)
    if which == "first":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


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


def _eigvals2(h):
    # Closed-form spectrum of a 2x2 Hermitian matrix.
    a = h[0, 0].real
    d = h[1, 1].real
    mid = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), abs(h[0, 1]))
    return np.array([mid + r, mid - r])


def herm_eigvals(m):
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, sorted descending.

    The input must be Hermitian to within ``HERMITICITY_RTOL`` (relative,
    Frobenius norm); it is symmetrized as (m + m^dag)/2 before solving to
    suppress accumulated rounding.  Raises :class:`NotHermitian` otherwise.
    """
    a = _as_matrix(m, "m")
    _check_hermitian(a, "m")
    h = 0.5 * (a + a.conj().T)
    if h.shape == (2, 2):
        return _eigvals2(h)
    return np.linalg.eigvalsh(h)[::-1]


def trace_norm(m):
    """Trace norm ||m||_1 of a Hermitian matrix: sum of |eigenvalues|."""
    return float(np.sum(np.abs(herm_eigvals(m))))
