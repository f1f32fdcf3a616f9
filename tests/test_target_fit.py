"""The closed-form target fit of ``experiment._fit_target`` against a
numeric reference, and the two-dimensional use of ``_sphere_argmax``.

``reference_fit`` is the fit the experiment pipeline used before the
closed form: a 1440-point scan over theta0, each point with its best
clamped amplitude, then Nelder-Mead from the best scan point.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qtradeoff.experiment import _fit_target
from qtradeoff.measures import _sphere_argmax

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def target_model(thetas_deg, theta0_deg, amplitude):
    ang = np.deg2rad(np.asarray(thetas_deg) - theta0_deg)
    return 0.5 * (1.0 + amplitude * np.cos(ang))


def sse(thetas_deg, p1_hat, theta0_deg, amplitude):
    return float(np.sum(
        (p1_hat - target_model(thetas_deg, theta0_deg, amplitude)) ** 2))


def reference_fit(thetas_deg, p1_hat):
    thetas_deg = np.asarray(thetas_deg)
    p1_hat = np.asarray(p1_hat)
    resid = p1_hat - 0.5

    def best_amp(t0):
        c = np.cos(np.deg2rad(thetas_deg - t0))
        denom = np.sum(c * c)
        if denom <= 0.0:
            return 0.0
        return float(min(max(2.0 * np.sum(resid * c) / denom, 0.0), 1.0))

    scan = np.arange(0.0, 360.0, 0.25)
    costs = [sse(thetas_deg, p1_hat, t0, best_amp(t0)) for t0 in scan]
    t0 = float(scan[int(np.argmin(costs))])
    res = minimize(lambda x: sse(thetas_deg, p1_hat, x[0], best_amp(x[0])),
                   np.array([t0]), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-18, "maxiter": 400})
    theta0 = float(res.x[0]) % 360.0
    return theta0, best_amp(theta0)


def circular_distance_deg(a, b):
    d = (a - b) % 360.0
    return min(d, 360.0 - d)


@PROPERTY
@given(thetas=st.lists(st.integers(-360, 360), min_size=3, max_size=24),
       radius=st.floats(0.0, 1.5),
       angle=st.floats(0.0, 360.0, exclude_max=True),
       noise=st.floats(0.0, 0.05),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_fit_matches_reference(thetas, radius, angle, noise, seed):
    assume(len({t % 180 for t in thetas}) >= 3)
    thetas = np.array(thetas, dtype=float)
    rng = np.random.default_rng(seed)
    p1_hat = (target_model(thetas, angle, radius)
              + noise * rng.standard_normal(thetas.size))

    theta0, amp = _fit_target(thetas, p1_hat)
    ref_theta0, ref_amp = reference_fit(thetas, p1_hat)
    assert 0.0 <= theta0 < 360.0
    assert 0.0 <= amp <= 1.0
    assert (sse(thetas, p1_hat, theta0, amp)
            <= sse(thetas, p1_hat, ref_theta0, ref_amp) + 1e-15)
    if amp >= 0.05:
        assert circular_distance_deg(theta0, ref_theta0) <= 1e-5


def test_fit_angle_just_below_zero_reads_zero():
    # The fitted v is about -1.8e-16, so theta0 is about -1e-14 degrees,
    # and -1e-14 % 360 rounds to 360.0.
    thetas = np.array([0.0, 90.0, 180.0, 270.0])
    theta0, amp = _fit_target(thetas, np.array([1.0, 0.5 - 2**-54, 0.0, 0.5]))
    assert theta0 == 0.0
    assert amp == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("thetas, p1, theta0", [
    ([30.0], 0.9, 30.0),
    ([30.0], 0.1, 210.0),
    ([10.0, 190.0], [0.9, 0.1], 10.0),
])
def test_unidentified_orientation_takes_minimum_norm_solution(
        thetas, p1, theta0):
    # One angle, or angles only 180 degrees apart, fix w only along one
    # direction; the fit returns the shortest w, which lies along it.
    got, amp = _fit_target(np.array(thetas), np.atleast_1d(p1))
    assert got == pytest.approx(theta0, abs=1e-9)
    assert amp == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("rotation", [0.0, 0.7, 2.5])
def test_sphere_argmax_two_dimensional_hard_case(rotation):
    # h = diag(1, 3) and b = (1/2, 0) in a rotated frame: b has no
    # component on the top eigenvector.  On r = (cos t, sin t) the
    # objective is 3 - 2 cos^2 t + cos t, largest at cos t = 1/4.
    c, s = np.cos(rotation), np.sin(rotation)
    q = np.array([[c, -s], [s, c]])
    h = q @ np.diag([1.0, 3.0]) @ q.T
    b = q @ np.array([0.5, 0.0])
    r = _sphere_argmax(h, b)
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-15)
    assert float(r @ h @ r + 2.0 * b @ r) == pytest.approx(3.125, abs=1e-14)
    local = q.T @ r
    assert local[0] == pytest.approx(0.25, abs=1e-14)
    assert abs(local[1]) == pytest.approx(np.sqrt(15.0) / 4.0, abs=1e-14)
