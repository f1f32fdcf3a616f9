"""The secular root of ``measures._sphere_argmax`` against a bracketed
reference.

``reference_argmax`` is the root finder ``_sphere_argmax`` used before the
Newton iteration on phi^(-1/2): ``scipy.optimize.brentq`` on the secular
equation over the bracket [top + |beta_top| / 2, top + 2 |b|], with the
same hard case.  Both results are also checked against the objective at
fixed sample points of the sphere, which share no code with either.
"""

import numpy as np
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

