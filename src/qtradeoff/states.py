"""Qubit state representations: density matrices, Bloch vectors, and the
linearly polarized pure states used by the interferometer simulation.

States are 2x2 complex numpy arrays (rho) and Bloch vectors length-3
float arrays with |r| <= 1; :func:`density_to_bloch` is the package's one
Pauli decomposition of a 2x2 operator.  Linear polarization angles are in
degrees at the interface; their states lie on the x-z great circle of
the Bloch sphere (y = 0).

All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .qmath import ID2, _as_matrix

__all__ = [
    "validate_density",
    "density_to_bloch",
    "linear_pol_state",
    "sm7_state_list",
    "MAXIMALLY_MIXED",
]

MAXIMALLY_MIXED = 0.5 * ID2

_DENSITY_TOL = 1e-10


def validate_density(rho, tol=_DENSITY_TOL):
    """Check Hermiticity, unit trace and positivity of a 2x2 state.

    Positivity is tested on the Hermitian part h, whose least eigenvalue
    is (tr h - |r|)/2 with r = density_to_bloch(h).  Returns the validated
    array; raises ValueError on violation.
    """
    a = _as_matrix(rho, "rho")
    if np.linalg.norm(a - a.conj().T) > tol * max(1.0, np.linalg.norm(a)):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix has trace {tr}, expected 1")
    r = np.linalg.norm(density_to_bloch(0.5 * (a + a.conj().T)))
    if 0.5 * (tr - r) < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return a


def density_to_bloch(rho):
    """Bloch vector r = (x, y, z) of a 2x2 state rho = (1 + r.sigma)/2, or
    vectors (..., 3) of a stack (..., 2, 2): the one Pauli decomposition,
    h = (tr(h) 1 + r.sigma)/2 for any Hermitian h (h01 read, not h10)."""
    a = np.asarray(rho, dtype=complex)
    r = np.empty(a.shape[:-2] + (3,))
    r[..., 0] = 2.0 * a[..., 0, 1].real
    r[..., 1] = -2.0 * a[..., 0, 1].imag
    r[..., 2] = (a[..., 0, 0] - a[..., 1, 1]).real
    return r


def linear_pol_state(theta_deg):
    """Linearly polarized pure state at polarization angle theta (degrees).

    |psi> = cos(theta/2)|H> + sin(theta/2)|V>, Bloch vector
    (sin theta, 0, cos theta).  theta = 0 is |H>, theta = 180 is |V>.
    An array of angles (...) gives a stack of states (..., 2, 2).
    """
    t = np.deg2rad(np.asarray(theta_deg, dtype=float))
    psi = np.stack([np.cos(0.5 * t), np.sin(0.5 * t)], axis=-1).astype(complex)
    return psi[..., :, None] * psi[..., None, :].conj()


def sm7_state_list():
    """Polarization angles (degrees) of the standard 16-state sweep.

    The list covers both extremal regions of the error and disturbance
    integrands (around 0/180 and around 90 degrees) plus 270.
    """
    return [
        -20.0, -10.0, 0.0, 10.0, 20.0,
        70.0, 80.0, 90.0, 100.0, 110.0,
        160.0, 170.0, 180.0, 190.0, 200.0,
        270.0,
    ]
