"""Distance measures between measurements and between channels.

The measurement error of a two-outcome POVM E' = {E'_1, E'_2} against the
fixed projective target E = {|1><1|, |2><2|} is the worst-case total
variational distance

    delta(E') = sup_rho (1/2) sum_i |tr(E'_i rho) - tr(E_i rho)|.

The disturbance of the induced channel T is, by default, the worst-case
trace-norm distance from the identity channel

    Delta(T) = (1/2) sup_rho ||T(rho) - rho||_1,

with alternatives: the diamond-norm distance (supremum over bipartite
pure inputs with an idle ancilla), the worst-case Hilbert-Schmidt norm,
the worst-case infidelity sup_rho (1 - F(rho, T(rho))^2), and the
state-averaged trace norm (uniform surface measure over pure states by
default, Bloch-ball volume optionally).

Both delta and Delta are convex in rho, so all suprema are taken over
pure states.  Every qubit channel acts on Bloch vectors as an affine map
r -> M r + t, read from the images of I/2 and the Pauli eigenstates, and
every effect is c 1 + d . sigma.  The measurement error and the
worst-case trace-norm, Hilbert-Schmidt and infidelity kinds are then the
maximum of a norm or a quadratic over the unit sphere, solved exactly
with one 3x3 eigendecomposition and the root of the secular equation,
found by a safeguarded Newton iteration on phi^(-1/2)
(``method == "exact"``).  The averaged kind is one vectorised quadrature
(``method == "quadrature"``).  The diamond kind is a concave maximization
over the ancilla state, one deterministic BFGS solve in numpy whose value
comes with a dual upper bound (``method == "certified"``).  No kind
searches, and the package needs numpy alone; the grid plus Nelder-Mead
maximizers that cross-check every kind are test oracles and live with
the tests.

The random-sampling axiom checker takes an explicit seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping

import numpy as np

from .instruments import (
    NORMALIZATION_TOL, DiagonalFamilyParams, Instrument, Povm, povm_of,
    validate_instrument)
from .qmath import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, dag
from .supopt import ExtremumEstimate

__all__ = [
    "UnknownKind",
    "MeasureKind",
    "TradeoffPoint",
    "TARGET_POVM",
    "HS_TO_TRACE_NORM_SCALE",
    "measurement_error",
    "measurement_error_estimate",
    "diagonal_measurement_error_closed_form",
    "diagonal_disturbance_closed_form",
    "diagonal_channel_disturbance_exact",
    "disturbance",
    "disturbance_estimate",
    "tradeoff_of",
    "AxiomReport",
    "check_measure_axioms",
]


class UnknownKind(ValueError):
    """Raised for an unrecognized disturbance-measure kind."""


class MeasureKind(str, Enum):
    WORST_TRACE = "worst-case-trace-norm"
    DIAMOND = "diamond"
    WORST_HS = "worst-case-hilbert-schmidt"
    WORST_INFIDELITY = "worst-case-infidelity"
    AVG_TRACE = "state-averaged-trace-norm"


# The reference (target) measurement: the ideal projective measurement in
# the computational basis.
TARGET_POVM = Povm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

# For a trace-preserving qubit channel, T(rho) - rho is traceless
# Hermitian, so its eigenvalues are +/- lambda and
# ||.||_1 = sqrt(2) ||.||_2 identically.  This is the constant relating
# the trace-norm and Hilbert-Schmidt disturbance curves.
HS_TO_TRACE_NORM_SCALE = float(np.sqrt(2.0))


@dataclass(frozen=True)
class TradeoffPoint:
    """A (delta, Delta) pair tagged with the parameters that produced it."""

    delta: float
    Delta: float
    tag: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not (-1e-12 <= self.delta <= 1.0 + 1e-12):
            raise ValueError(f"delta = {self.delta} outside [0, 1]")
        if not (-1e-12 <= self.Delta <= 1.0 + 1e-12):
            raise ValueError(f"Delta = {self.Delta} outside [0, 1]")


# ---------------------------------------------------------------------------
# Bloch-affine form and exact suprema over the sphere
# ---------------------------------------------------------------------------

# I/2 followed by the +1 eigenstates of sigma_x, sigma_y and sigma_z.
_PROBE_STATES = (0.5 * ID2,) + tuple(
    0.5 * (ID2 + s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def _pauli_coefficients(x):
    # x = c 1 + d . sigma for a Hermitian 2x2 x: c = tr(x)/2 and
    # d_j = tr(sigma_j x)/2, real parts taken.
    (a, b), (e, f) = x
    return 0.5 * (a + f).real, 0.5 * np.array(
        [(b + e).real, (e - b).imag, (a - f).real])


def _bloch_affine(apply2):
    """(M, t) with T((1 + r.sigma)/2) = (1 + (M r + t).sigma)/2.

    Read from the images of I/2 and the three Pauli eigenstates, so every
    linear map works, bare callables included.  Raises ValueError if the
    map is not trace-preserving to ``NORMALIZATION_TOL``.
    """
    coeffs = [_pauli_coefficients(np.asarray(apply2(rho), dtype=complex))
              for rho in _PROBE_STATES]
    dev = max(abs(2.0 * c - 1.0) for c, _ in coeffs)
    if not dev <= NORMALIZATION_TOL:
        raise ValueError(
            f"channel is not trace-preserving: |tr T(rho) - 1| = {dev:.3e} "
            f"exceeds {NORMALIZATION_TOL:.0e}")
    t = 2.0 * coeffs[0][1]
    m = np.column_stack([2.0 * d - t for _, d in coeffs[1:]])
    return m, t


def _sphere_argmax(h, b):
    """Unit vector r maximizing r.h.r + 2 b.r for a symmetric n x n h.

    The global maximizer solves (lam - h) r = b with lam at or above the
    top eigenvalue of h (Gander, Golub & von Matt 1989; More & Sorensen
    1983).  In the eigenbasis r_i = beta_i / (lam - h_i), and lam is the
    root of the secular equation phi(lam) = sum_i beta_i^2 / (lam - h_i)^2
    = 1.  Above the top pole phi^(-1/2) is concave and increasing, so
    Newton's method on phi^(-1/2) = 1, started at the left end of the
    bracket [top + |beta_top| / 2, top + 2 |b|], climbs to the root
    monotonically; a step that would leave the shrinking bracket bisects
    it instead.  The component on the top eigenspace is beta_top / mu,
    renormalised with the rest, and in the hard case, where b has no
    component there and lam can be the top eigenvalue itself, it is set
    by the unit norm.
    """
    evals, q = np.linalg.eigh(h)
    beta = q.T @ b
    top_val = evals[-1]
    tol = 1e-12 * max(1.0, abs(top_val))
    top = top_val - evals <= tol
    tail_beta, tail_gap = beta[~top], top_val - evals[~top]
    beta_top = float(np.linalg.norm(beta[top]))
    if beta_top <= tol:
        beta_top = 0.0
    # (beta_i, h_top - h_i) per pole, in mu = lam - h_top.
    poles = list(zip(tail_beta.tolist(), tail_gap.tolist()))
    if beta_top:
        poles.append((beta_top, 0.0))

    def moments(mu):
        # phi(mu) and sum_i beta_i^2 / (mu + gap_i)^3.
        phi = s3 = 0.0
        for beta_i, gap_i in poles:
            w = (beta_i / (mu + gap_i)) ** 2
            phi += w
            s3 += w / (mu + gap_i)
        return phi, s3

    # phi > 1 at the left end of the bracket, and phi <= 1/4 at the right
    # end, where every pole is at least 2 |b| away.  phi <= 1 at mu = 0
    # (only possible with beta_top = 0) is the hard case.
    mu = 0.5 * beta_top
    phi, s3 = moments(mu)
    if phi > 1.0:
        lo, hi = mu, 2.0 * float(np.linalg.norm(b))
        ulps = 4.0 * np.finfo(float).eps
        for _ in range(100):
            # Newton step of phi^(-1/2) = 1.
            new = mu + phi * (math.sqrt(phi) - 1.0) / s3
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            converged = abs(new - mu) <= ulps * new
            mu = new
            if converged:
                break
            phi, s3 = moments(mu)
            if phi > 1.0:
                lo = mu
            else:
                hi = mu
    y = np.zeros(len(b))
    y[~top] = tail_beta / (mu + tail_gap)
    if beta_top > 0.0:
        y[top] = beta[top] / mu
        return q @ (y / np.linalg.norm(y))
    y[-1] = np.sqrt(max(0.0, 1.0 - float(y @ y)))
    return q @ y


def _exact(r, value):
    # Argmax as Bloch angles (theta, phi), like the numeric engine.
    angles = np.array([np.arccos(np.clip(r[2], -1.0, 1.0)),
                       np.arctan2(r[1], r[0]) % (2.0 * np.pi)])
    return ExtremumEstimate(angles, float(value), 0.0, "exact")


# ---------------------------------------------------------------------------
# Measurement error
# ---------------------------------------------------------------------------

def measurement_error_estimate(povm: Povm) -> ExtremumEstimate:
    """Worst-case total variational distance to the target measurement,
    with the maximizing state's Bloch angles.

    Exact: with E'_j - E_j = c_j 1 + d_j . sigma, the supremum of
    (1/2)(|c_1 + d_1.r| + |c_2 + d_2.r|) over unit r is the largest of
    (1/2)(s_1 c_1 + s_2 c_2 + |s_1 d_1 + s_2 d_2|) over the signs s_j,
    which is |c_1| + |d_1| when E'_1 + E'_2 = 1.
    """
    (c1, d1), (c2, d2) = (_pauli_coefficients(e - t) for e, t in (
        (povm.e1, TARGET_POVM.e1), (povm.e2, TARGET_POVM.e2)))
    c, d = max(((s1 * c1 + s2 * c2, s1 * d1 + s2 * d2)
                for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)),
               key=lambda cd: cd[0] + np.linalg.norm(cd[1]))
    n = float(np.linalg.norm(d))
    r = d / n if n > 0.0 else np.array([0.0, 0.0, 1.0])
    return _exact(r, 0.5 * (c + n))


def measurement_error(povm: Povm) -> float:
    """delta(E'): supremum over pure states of the outcome-distribution
    distance to the ideal projective measurement (exact)."""
    return measurement_error_estimate(povm).value


def diagonal_measurement_error_closed_form(p: DiagonalFamilyParams) -> float:
    """Symmetric-locus closed form (b1^2 + b2^2) / 2 for the diagonal family.

    Exact whenever b1 == b2 (which covers the optimal family and both
    reference schemes); for b1 != b2 the true supremum is
    max(b1^2, b2^2) and this expression is a lower bound.
    """
    return 0.5 * (p.b1**2 + p.b2**2)


# ---------------------------------------------------------------------------
# Channel handling
# ---------------------------------------------------------------------------

def _kraus_map(k1, k2):
    k1d, k2d = dag(k1), dag(k2)
    return lambda x: k1 @ x @ k1d + k2 @ x @ k2d


def _channel_map(channel):
    """(T, linear): the channel as a function on 2x2 operators, and
    whether T is known to be linear on all of them, not only on states (a
    bare callable is not; the diamond kind needs it)."""
    if isinstance(channel, Instrument):
        return _kraus_map(channel.k1, channel.k2), True
    if hasattr(channel, "weight") and hasattr(channel, "replacement"):
        w = float(channel.weight)
        rep = np.asarray(channel.replacement, dtype=complex)
        return lambda x: w * rep * np.trace(x) + (1.0 - w) * x, True
    if callable(channel):
        return channel, False
    raise TypeError(f"cannot interpret {type(channel).__name__} as a channel")


def diagonal_disturbance_closed_form(p: DiagonalFamilyParams) -> float:
    """Closed-form worst-case trace-norm disturbance of the diagonal family:

        Delta = (1/2) |1 - e^{i beta1} b1 sqrt(1 - b2^2)
                        - e^{i beta2} b2 sqrt(1 - b1^2)|.

    The channel preserves populations and scales the coherence by the
    bracketed factor; the supremum sits on the Bloch equator.
    """
    eta = (np.exp(1j * p.beta1) * p.b1 * np.sqrt(1.0 - p.b2**2)
           + np.exp(1j * p.beta2) * p.b2 * np.sqrt(1.0 - p.b1**2))
    return 0.5 * abs(1.0 - eta)


def diagonal_channel_disturbance_exact(ins: Instrument) -> float:
    """Exact worst-case trace-norm disturbance for diagonal Kraus pairs."""
    for k in (ins.k1, ins.k2):
        if abs(k[0, 1]) > 1e-12 or abs(k[1, 0]) > 1e-12:
            raise ValueError("instrument Kraus operators are not diagonal")
    eta = (ins.k1[0, 0] * np.conj(ins.k1[1, 1])
           + ins.k2[0, 0] * np.conj(ins.k2[1, 1]))
    return 0.5 * abs(1.0 - eta)


# ---------------------------------------------------------------------------
# Disturbance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _quadrature(domain):
    # Points and weights (summing to 1) of the averaged kind.  Surface:
    # Gauss-Legendre in theta with the sin(theta) weight times a uniform
    # trapezoid in phi, spectrally accurate for the trigonometric
    # integrands that arise here.  Ball: the same nodes on 32
    # Gauss-Legendre shells with the r^2 volume weight.
    x, w = np.polynomial.legendre.leggauss(48)
    thetas = 0.5 * np.pi * (x + 1.0)
    phis = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    points = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                       np.cos(th)], axis=-1).reshape(-1, 3)
    weights = np.repeat(0.25 * np.pi * w * np.sin(thetas) / len(phis),
                        len(phis))
    if domain == "ball":
        r, wr = np.polynomial.legendre.leggauss(32)
        radii = 0.5 * (r + 1.0)
        points = (radii[:, None, None] * points).reshape(-1, 3)
        weights = np.outer(1.5 * radii**2 * wr, weights).ravel()
    elif domain != "surface":
        raise ValueError(
            f"average_domain must be 'surface' or 'ball', got {domain!r}")
    # Cached and shared by every call: freeze them.
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


def _worst_trace(m, t):
    # (1/2) max |(M - 1) r + t| over the unit sphere.
    a = m - np.eye(3)
    r = _sphere_argmax(a.T @ a, a.T @ t)
    return r, 0.5 * np.linalg.norm(a @ r + t)


def disturbance_estimate(channel, kind=MeasureKind.WORST_TRACE, strategy=None,
                         *, average_domain="surface") -> ExtremumEstimate:
    """Disturbance of a channel with argmax information.

    ``channel`` may be an :class:`Instrument`, a marginal-channel spec
    (an object with ``weight`` and ``replacement``), or a bare linear
    callable on 2x2 states (all kinds except diamond).  The channel must
    be trace-preserving (ValueError otherwise).  ``strategy`` is never
    read: no kind searches.  It stays only because the benchmark's diamond
    workload passes a :class:`~qtradeoff.supopt.SupremumStrategy` there
    positionally; removing it waits for a change to the benchmark.
    """
    try:
        kind = MeasureKind(kind)
    except ValueError as exc:
        raise UnknownKind(f"unknown disturbance measure kind {kind!r}") from exc

    apply2, linear = _channel_map(channel)
    m, t = _bloch_affine(apply2)

    # T(rho) - rho = ((M - 1) r + t) . sigma / 2 is traceless, with trace
    # norm |(M - 1) r + t| and Hilbert-Schmidt norm that over sqrt(2).
    if kind is MeasureKind.WORST_TRACE:
        return _exact(*_worst_trace(m, t))

    if kind is MeasureKind.WORST_HS:
        r, value = _worst_trace(m, t)
        return _exact(r, value / HS_TO_TRACE_NORM_SCALE)

    if kind is MeasureKind.WORST_INFIDELITY:
        # For pure rho, 1 - F(rho, T(rho))^2 = 1 - tr(rho T(rho))
        # = (1 - r.(M r + t)) / 2, minimized over r.  Clamped at 0:
        # rounding can take the identity channel's value below it.
        r = _sphere_argmax(-0.5 * (m + m.T), -0.5 * t)
        return _exact(r, max(0.0, 0.5 * (1.0 - r @ (m @ r + t))))

    if kind is MeasureKind.AVG_TRACE:
        points, weights = _quadrature(average_domain)
        dist = np.linalg.norm(points @ (m - np.eye(3)).T + t, axis=1)
        return ExtremumEstimate(np.empty(0), float(0.5 * dist @ weights),
                                0.0, "quadrature")

    if not linear:
        raise TypeError(
            "diamond-norm disturbance needs an Instrument or a marginal "
            "channel spec; a bare callable has no bipartite extension")
    return _diamond(apply2, *_worst_trace(m, t))


# 1 (x) P for P in (1, sigma_x, sigma_y, sigma_z): S = 1 (x) X is c @ _LIFTED
# for X = c0 1 + c.sigma, and X is S's top-left block.
_LIFTED = np.kron(ID2, np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z]))


def _dual_bound(j, sigmas):
    # lambda_max(Tr_out Z) per state of the (n, 2, 2) stack, for
    # Z = S^-1 K+ S^-1, S = 1 (x) sqrt(sigma), K+ the positive part of
    # K = S J S: Z >= 0 and Z - J = S^-1 K- S^-1 >= 0.  2 mu makes it hold
    # for the computed Z too (see _diamond).
    n = len(sigmas)
    w, u = np.linalg.eigh(sigmas)
    s, s_inv = np.zeros((2, n, 4, 4), dtype=complex)
    for blk, p in ((s, 0.5), (s_inv, -0.5)):
        # 1 (x) sigma^p: sigma^p twice on the diagonal.
        blk[:, :2, :2] = blk[:, 2:, 2:] = (
            (u * w[:, None]**p) @ u.conj().swapaxes(1, 2))
    evals, vecs = np.linalg.eigh(s @ j @ s)
    z = (s_inv @ (vecs * np.maximum(evals, 0.0)[:, None])
         @ vecs.conj().swapaxes(1, 2) @ s_inv)
    lows = np.linalg.eigvalsh(np.concatenate([z - j, z]))[:, 0].reshape(2, n)
    mu = np.maximum(0.0, -lows.min(axis=0))
    mu += 16.0 * np.finfo(float).eps * (np.linalg.norm(z, axis=(1, 2))
                                        + np.linalg.norm(j))
    tr_out = np.einsum("nikil->nkl", z.reshape(n, 2, 2, 2, 2))
    return np.linalg.eigvalsh(tr_out)[:, -1] + 2.0 * mu


def _bfgs(fun, x):
    # Minimize fun (returning the value and the gradient) from x: BFGS
    # with Armijo backtracking and the standard inverse-Hessian update.
    # Stops on a gradient below 1e-10 in every entry, on a failed line
    # search, on a step that gains at most 4 eps |f|, or after scipy's
    # default of 200 iterations per variable.
    f, g = fun(x)
    h = eye = np.eye(len(x))
    for _ in range(200 * len(x)):
        if np.max(np.abs(g)) < 1e-10:
            break
        p = -h @ g
        slope = g @ p
        step = 1.0
        for _ in range(50):
            f_new, g_new = fun(x + step * p)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        sk, yk = step * p, g_new - g
        gain = f - f_new
        x, f, g = x + sk, f_new, g_new
        if gain <= 4.0 * np.finfo(float).eps * abs(f):
            break
        sy = sk @ yk
        if sy > 0.0:
            a = eye - np.outer(sk, yk) / sy
            h = a @ h @ a.T + np.outer(sk, sk) / sy
    return x, f


def _diamond(apply2, r_worst, worst):
    """(1/2)||T - id||_<> as one deterministic solve with a dual bound.

    The input (1 (x) X)|Omega>, X = c0 1 + c.sigma, has the output
    K = S J S, S = 1 (x) X and J the Choi matrix of T - id (output first,
    input copy second), and the ancilla state X^2 / tr X^2 whatever the
    signs of X's eigenvalues; other inputs with that state differ by an
    ancilla unitary, which the trace norm does not see.  So
    f(c) = (1/2)||K||_1 / tr X^2 is Watrous's SDP optimum at that state
    (arXiv:1207.5726), concave in it, and BFGS (:func:`_bfgs`, numpy only)
    with the gradient d||K||_1/dc_k = 2 Re tr(P (1 (x) P_k) J S), P the
    sign matrix of K, finds the maximum from the centre and from the pure
    state that puts the system in the worst single-qubit state (mirrored:
    the complex conjugate), so the value is never below the worst-case
    trace norm.  ``params`` holds the 8 reals of the maximizing input.
    The maximum is flat to second order and the solve stops on a 1e-10
    gradient, so the value is fixed to rounding but the argmax only to
    about 1e-7: solvers that agree on the value to 1e-15 return inputs up
    to about 3e-7 apart.  ``eval --kind diamond`` prints it with 16
    digits all the same; the digits beyond the seventh carry no meaning.

    ``certified_gap`` is ``upper - value``, ``upper`` the least
    :func:`_dual_bound` over the argmax state shrunk toward I/2 by
    1e-4 ... 1e-12 (Z needs it invertible), all five shrinks in one
    stacked evaluation.  ``upper`` includes a rounding allowance: twice
    the measured shortfall of the computed Z from Z >= J and Z >= 0, plus
    32 eps (||Z||_F + ||J||_F).
    """
    # J[(a, k), (b, l)] = (T - id)(|k><l|)[a, b].
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    images = np.stack([apply2(e) - e for e in units])
    j = images.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)

    def neg(c):
        # -f(c) and its gradient, with tr X^2 = 2 c.c.
        s = np.tensordot(c, _LIFTED, 1)
        evals, vecs = np.linalg.eigh(s @ j @ s)
        n, cc = np.abs(evals).sum(), c @ c
        dn = 2.0 * np.einsum("kab,ba->k", _LIFTED,
                             j @ s @ (vecs * np.sign(evals)) @ dag(vecs)).real
        return -n / (4.0 * cc), (2.0 * n * c / cc - dn) / (4.0 * cc)

    mirrored = 0.5 * np.concatenate([[1.0], r_worst * [1.0, -1.0, 1.0]])
    c, f = min((_bfgs(neg, c0)
                for c0 in (np.array([1.0, 0.0, 0.0, 0.0]), mirrored)),
               key=lambda res: res[1])
    x = np.tensordot(c, _LIFTED, 1)[:2, :2]
    sigma = x @ x / np.trace(x @ x).real
    value = max(-float(f), float(worst))
    shrinks = 10.0 ** -np.arange(4, 13, 2)[:, None, None]
    upper = _dual_bound(j, (1.0 - shrinks) * sigma + 0.5 * shrinks * ID2).min()
    v = x.T.ravel() / np.linalg.norm(x)
    return ExtremumEstimate(np.concatenate([v.real, v.imag]), value,
                            float(upper) - value, "certified")


def disturbance(channel, kind=MeasureKind.WORST_TRACE, *,
                average_domain="surface") -> float:
    """Disturbance of a channel under the chosen measure kind."""
    return disturbance_estimate(channel, kind,
                                average_domain=average_domain).value


def tradeoff_of(ins: Instrument, kind=MeasureKind.WORST_TRACE) -> TradeoffPoint:
    """Pair the measurement error of the induced POVM with the channel
    disturbance of the instrument."""
    kind = MeasureKind(kind)
    delta = measurement_error(povm_of(ins))
    Delta = disturbance(ins, kind)
    tag = dict(ins.label)
    tag["kind"] = kind.value
    return TradeoffPoint(delta, Delta, tag)


# ---------------------------------------------------------------------------
# Axioms of the measures (sampled checks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomEntry:
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


@dataclass(frozen=True)
class AxiomReport:
    entries: tuple

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)

    def worst_of(self, name):
        for e in self.entries:
            if e.name == name:
                return e.worst
        raise KeyError(name)


def _random_unitary(rng, dim=2):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_povm(rng):
    u = _random_unitary(rng)
    e1 = u @ np.diag(rng.uniform(0.0, 1.0, size=2)) @ dag(u)
    e1 = 0.5 * (e1 + dag(e1))
    return Povm(e1, ID2 - e1)


def _random_instrument(rng):
    # Haar 4x4 unitary -> isometry C^2 -> C^2 (x) C^2 -> Kraus pair.
    u = _random_unitary(rng, 4)
    v = u[:, :2]
    return validate_instrument(v[0:2, :], v[2:4, :])


def _mix_povm(a: Povm, b: Povm, lam):
    return Povm(lam * a.e1 + (1 - lam) * b.e1, lam * a.e2 + (1 - lam) * b.e2)


_AXIOM_TOLS = {
    "delta-convexity": 1e-8,
    "delta-permutation-invariance": 1e-8,
    "delta-diagonal-unitary-invariance": 1e-8,
    "Delta-convexity": 1e-6,
    "Delta-basis-independence": 1e-6,
}


def check_measure_axioms(samples: int, rng) -> AxiomReport:
    """Numerically verify the structural properties of delta and Delta on
    random POVM pairs and random single-Kraus-pair channels.

    Checks per trial: convexity of delta under POVM mixing; invariance of
    delta under conjugation by the two-element permutation and by a random
    diagonal unitary; convexity of Delta under channel mixing; invariance
    of Delta under a random change of basis.  Both measures are exact
    suprema.  Pass a seeded ``numpy.random.Generator``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    worst = {name: 0.0 for name in _AXIOM_TOLS}

    for _ in range(samples):
        m, mp = _random_povm(rng), _random_povm(rng)
        lam = float(rng.uniform())

        d_m = measurement_error(m)
        d_mp = measurement_error(mp)
        d_mix = measurement_error(_mix_povm(m, mp, lam))
        worst["delta-convexity"] = max(
            worst["delta-convexity"], d_mix - (lam * d_m + (1 - lam) * d_mp))

        # Permutation pi = (1 2): elements swapped and conjugated by sigma_x.
        perm = Povm(SIGMA_X @ m.e2 @ SIGMA_X, SIGMA_X @ m.e1 @ SIGMA_X)
        worst["delta-permutation-invariance"] = max(
            worst["delta-permutation-invariance"],
            abs(measurement_error(perm) - d_m))

        chi = float(rng.uniform(0.0, 2.0 * np.pi))
        du = np.diag([1.0, np.exp(1j * chi)])
        rotated = Povm(dag(du) @ m.e1 @ du, dag(du) @ m.e2 @ du)
        worst["delta-diagonal-unitary-invariance"] = max(
            worst["delta-diagonal-unitary-invariance"],
            abs(measurement_error(rotated) - d_m))

        ins_a, ins_b = _random_instrument(rng), _random_instrument(rng)
        fa, fb = _channel_map(ins_a)[0], _channel_map(ins_b)[0]
        da = disturbance(fa)
        db = disturbance(fb)
        dmix = disturbance(lambda rho: lam * fa(rho) + (1 - lam) * fb(rho))
        worst["Delta-convexity"] = max(
            worst["Delta-convexity"], dmix - (lam * da + (1 - lam) * db))

        u = _random_unitary(rng)
        ud = dag(u)
        drot = disturbance(lambda rho: u @ fa(ud @ rho @ u) @ ud)
        worst["Delta-basis-independence"] = max(
            worst["Delta-basis-independence"], abs(drot - da))

    entries = tuple(AxiomEntry(name, worst[name], tol)
                    for name, tol in _AXIOM_TOLS.items())
    return AxiomReport(entries)
