"""Qubit state representations: density matrices, Bloch vectors, and the
linearly polarized pure states used by the interferometer simulation.

States are 2x2 complex numpy arrays (rho).  Bloch vectors are length-3
float arrays with x^2 + y^2 + z^2 <= 1.  Linear polarization angles are
carried in degrees at the interface and converted internally; the states
they describe live on the x-z great circle of the Bloch sphere (y = 0).

All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .qmath import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, _as_matrix, herm_eigvals

__all__ = [
    "OutsideBall",
    "validate_density",
    "bloch_to_density",
    "density_to_bloch",
    "pure_state",
    "linear_pol_state",
    "sm7_state_list",
    "MAXIMALLY_MIXED",
]

MAXIMALLY_MIXED = 0.5 * ID2

_BALL_TOL = 1e-9
_DENSITY_TOL = 1e-10


class OutsideBall(ValueError):
    """Raised for Bloch vectors with norm exceeding 1 (beyond tolerance)."""


def validate_density(rho, tol=_DENSITY_TOL):
    """Check Hermiticity, unit trace and positivity of a 2x2 state.

    Returns the validated array; raises ValueError on violation.
    """
    a = _as_matrix(rho, "rho")
    if np.linalg.norm(a - a.conj().T) > tol * max(1.0, np.linalg.norm(a)):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix has trace {tr}, expected 1")
    if herm_eigvals(a)[-1] < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return a


def bloch_to_density(b):
    """Map a Bloch vector (x, y, z) to rho = (1 + x sx + y sy + z sz) / 2."""
    v = np.asarray(b, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {v.shape}")
    r = float(np.linalg.norm(v))
    if r > 1.0 + _BALL_TOL:
        raise OutsideBall(f"Bloch vector norm {r} exceeds 1")
    return 0.5 * (ID2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def density_to_bloch(rho):
    """Bloch vector of a 2x2 state, or vectors (..., 3) of a stack of
    states (..., 2, 2); inverse of :func:`bloch_to_density`."""
    a = np.asarray(rho, dtype=complex)
    x = 2.0 * a[..., 0, 1].real
    y = -2.0 * a[..., 0, 1].imag
    z = (a[..., 0, 0] - a[..., 1, 1]).real
    return np.stack([x, y, z], axis=-1)


def pure_state(theta, phi):
    """Pure state with Bloch angles (theta, phi), in radians.

    Bloch vector: (sin t cos p, sin t sin p, cos t).
    """
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    psi = np.array([c, np.exp(1j * phi) * s])
    return np.outer(psi, psi.conj())


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
