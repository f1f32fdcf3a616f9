"""The secular root of ``measures._sphere_argmax`` against a bracketed
reference.

``reference_argmax`` is the root finder ``_sphere_argmax`` used before the
Newton iteration on phi^(-1/2): ``scipy.optimize.brentq`` on the secular
equation over the bracket [top + |beta_top| / 2, top + 2 |b|], with the
same hard case.  Both results are also checked against the objective at
fixed sample points of the sphere, which share no code with either.

Near the hard case the returned vector itself is checked against a
60-digit bisection of the secular equation with the standard library's
``decimal``.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qtradeoff.measures import _sphere_argmax

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)


def reference_argmax(h, b):
    evals, q = np.linalg.eigh(h)
    beta = q.T @ b
    top_val = evals[-1]
    tol = 1e-12 * max(1.0, abs(top_val))
    top = top_val - evals <= tol
    tail_beta, tail_gap = beta[~top], top_val - evals[~top]
    beta_top = float(np.linalg.norm(beta[top]))
    if beta_top <= tol:
        beta_top = 0.0

    def secular(lam):
        s = np.sum((tail_beta / (lam - top_val + tail_gap)) ** 2) - 1.0
        return s + (beta_top / (lam - top_val)) ** 2 if beta_top else s

    lam = top_val
    if beta_top > 0.0 or secular(top_val) > 0.0:
        lam = brentq(secular, top_val + 0.5 * beta_top,
                     top_val + 2.0 * float(np.linalg.norm(b)), xtol=1e-15)
    y = np.zeros(len(b))
    y[~top] = tail_beta / (lam - top_val + tail_gap)
    norm_top = np.sqrt(max(0.0, 1.0 - float(y @ y)))
    if beta_top > 0.0:
        y[top] = norm_top * beta[top] / beta_top
    else:
        y[-1] = norm_top
    return q @ y


def objective(h, b, r):
    return r @ h @ r + 2.0 * b @ r


def sphere_samples(n, count=400):
    x = np.random.default_rng(n).standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1)[:, None]


SAMPLES = {n: sphere_samples(n) for n in (2, 3)}

unit = st.floats(-1.0, 1.0)


@st.composite
def problems(draw):
    """(h, b) in 2 or 3 dimensions, built from an eigendecomposition so
    that the case is known: a general h, a negative-definite h, a scalar
    h, the hard case (b orthogonal to the top eigenspace) and the
    near-hard case (b's top component around 1e-9)."""
    n = draw(st.sampled_from([2, 3]))
    case = draw(st.sampled_from(
        ["general", "negative-definite", "scalar", "hard", "near-hard"]))
    scale = 10.0 ** draw(st.integers(-3, 1))
    evals = scale * np.sort(draw(st.lists(unit, min_size=n, max_size=n)))
    if case == "negative-definite":
        evals = np.sort(-np.abs(evals) - 1e-3 * scale)
    if case == "scalar":
        evals[:] = evals[0]
    a = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n)))
    q, _ = np.linalg.qr(a.reshape(n, n) + 3.0 * np.eye(n))
    beta = 10.0 ** draw(st.integers(-8, 1)) * np.array(
        draw(st.lists(unit, min_size=n, max_size=n)))
    top = evals == evals[-1]
    if case == "hard":
        beta[top] = 0.0
    if case == "near-hard":
        beta[top] = 1e-9 * draw(st.sampled_from([-1.0, 1.0]))
    if case == "scalar":
        h = evals[0] * np.eye(n)
    else:
        h = q @ np.diag(evals) @ q.T
        h = 0.5 * (h + h.T)
    return h, q @ beta


@PROPERTY
@given(problems())
def test_newton_root_matches_bracketed_reference(problem):
    h, b = problem
    r, ref = _sphere_argmax(h, b), reference_argmax(h, b)
    tol = 1e-12 * (1.0 + np.linalg.norm(h) + np.linalg.norm(b))
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
    assert objective(h, b, r) >= objective(h, b, ref) - tol
    x = SAMPLES[len(b)]
    sampled = np.max(np.einsum("ki,ij,kj->k", x, h, x) + 2.0 * x @ b)
    assert objective(h, b, r) >= sampled - tol



def decimal_argmax(gaps, beta):
    """The argmax in the eigenbasis of h = -diag(gaps), top eigenvalue 0
    last, by 200 bisections of phi(mu) = 1 over [|beta_top| / 2, 2 |b|] in
    60-digit decimals; also s = 2 sum_i y_i^2 mu / (mu + gap_i), the
    relative slope -mu phi'(mu) at the root."""
    with localcontext() as ctx:
        ctx.prec = 60
        g, b = [Decimal(x) for x in gaps], [Decimal(x) for x in beta]

        def phi(mu):
            return sum((bi / (mu + gi)) ** 2 for bi, gi in zip(b, g))

        lo, hi = abs(b[-1]) / 2, 2 * sum(bi * bi for bi in b).sqrt()
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if phi(mid) > 1 else (lo, mid)
        y = [bi / (lo + gi) for bi, gi in zip(b, g)]
        s = 2 * sum(yi * yi * lo / (lo + gi) for yi, gi in zip(y, g))
        return np.array([float(v) for v in y]), float(s)


@pytest.mark.parametrize("tail_reaches_one", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_near_hard_case_argmax_matches_high_precision_root(seed,
                                                           tail_reaches_one):
    """beta_top around 1e-9: every component of the argmax, the small top
    one included, to 64 eps relative.

    With h diagonal and its top eigenvalue 0, h, b and the gaps are exact
    in floats, so only the root and the division round.  Each term of
    phi carries at most 4 eps relative rounding and the sum 2 more, which
    moves the root by at most 6 eps / s relative; the Newton stop adds at
    most 4 eps.  y_i = beta_i / (mu + gap_i) then errs by at most that
    plus 2 eps, and renormalising at most doubles it and adds 2 eps:
    14 eps + 12 eps / s in all, below 64 eps for s >= 1/4, which is
    asserted.  The tail alone has phi(0) >= 2 when it reaches one (the top
    component is then about 1e-9), and phi(0) <= 0.72 when it does not.
    """
    rng = np.random.default_rng(seed)
    gaps = np.append(np.sort(rng.uniform(0.5, 2.0, 2))[::-1], 0.0)
    scale = (1.0, 2.0) if tail_reaches_one else (0.2, 0.6)
    signs = rng.choice([-1.0, 1.0], 3)
    beta = signs * np.append(gaps[:2] * rng.uniform(*scale, 2),
                             1e-9 * rng.uniform(0.5, 2.0))
    exact, s = decimal_argmax(gaps, beta)
    assert s >= 0.25
    r = _sphere_argmax(-np.diag(gaps), beta)
    assert np.all(np.abs(r - exact) <= 64 * np.finfo(float).eps * np.abs(exact))
