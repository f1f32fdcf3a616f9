import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bloch_to_density, pure_state
from qtradeoff.qmath import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from qtradeoff.states import (
    density_to_bloch,
    linear_pol_state,
    sm7_state_list,
    validate_density,
)

PROJ_H = np.diag([1.0, 0.0]).astype(complex)
PROJ_V = np.diag([0.0, 1.0]).astype(complex)

ball_coord = st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)


def test_density_to_bloch_examples():
    assert np.allclose(density_to_bloch(0.5 * ID2), [0, 0, 0])
    assert np.allclose(density_to_bloch(PROJ_V), [0, 0, -1])
    rho = bloch_to_density([0.6, 0.0, 0.8])
    assert np.allclose(density_to_bloch(rho), [0.6, 0.0, 0.8])


@given(ball_coord, ball_coord, ball_coord)
@settings(max_examples=150, deadline=None)
def test_bloch_round_trip_and_validity(x, y, z):
    v = np.array([x, y, z])
    n = np.linalg.norm(v)
    if n > 1.0:
        v = v / n
    rho = bloch_to_density(v)
    validate_density(rho)
    assert np.allclose(density_to_bloch(rho), v, atol=1e-12)


@given(ball_coord, ball_coord, ball_coord)
@settings(max_examples=150, deadline=None)
def test_purity_iff_unit_bloch_norm(x, y, z):
    v = np.array([x, y, z])
    n = np.linalg.norm(v)
    if n > 1.0:
        v = v / n
        n = 1.0
    rho = bloch_to_density(v)
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(0.5 * (1.0 + n * n), abs=1e-12)
    if abs(purity - 1.0) < 1e-9:
        assert n == pytest.approx(1.0, abs=1e-9)


def test_linear_pol_state_endpoints():
    assert np.allclose(linear_pol_state(0.0), PROJ_H, atol=1e-12)
    assert np.allclose(linear_pol_state(180.0), PROJ_V, atol=1e-12)
    assert np.allclose(density_to_bloch(linear_pol_state(90.0)), [1, 0, 0], atol=1e-12)


def test_linear_pol_state_bloch_circle():
    for theta in (-20.0, 37.0, 123.0, 270.0, 359.0):
        b = density_to_bloch(linear_pol_state(theta))
        t = np.deg2rad(theta)
        assert np.allclose(b, [np.sin(t), 0.0, np.cos(t)], atol=1e-12)


def test_linear_pol_state_periodic():
    assert np.allclose(linear_pol_state(10.0), linear_pol_state(370.0), atol=1e-12)


def test_pure_state_is_valid_density():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = pure_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        validate_density(rho)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_sm7_state_list_contents():
    lst = sm7_state_list()
    assert len(lst) == 16
    assert lst == [-20.0, -10.0, 0.0, 10.0, 20.0, 70.0, 80.0, 90.0, 100.0,
                   110.0, 160.0, 170.0, 180.0, 190.0, 200.0, 270.0]
    assert 90.0 in lst
    assert 45.0 not in lst


def test_validate_density_rejections():
    with pytest.raises(ValueError):
        validate_density(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(ValueError):
        validate_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    # The least eigenvalue may fall short of 0 by the tolerance 1e-10.
    rho = np.diag([1.0 + 5e-11, -5e-11])
    np.testing.assert_array_equal(validate_density(rho), rho)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(np.diag([1.0 + 2e-10, -2e-10]))
    with pytest.raises(ValueError, match="2x2"):
        validate_density(np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_validate_density_applies_its_own_hermiticity_rule():
    # ||rho - rho^dag|| = 9.9e-11 is within the density tolerance of 1e-10;
    # positivity is tested on the Hermitian part, so rho is accepted.
    rho = np.array([[0.5, 0.0], [7e-11, 0.5]])
    np.testing.assert_array_equal(validate_density(rho), rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density(np.array([[0.5, 0.0], [2e-10, 0.5]]))


def test_validate_density_positivity_matches_numpy_eigenvalues():
    # Bloch vectors of norm 1 + t in random directions, complex coherences
    # included: the least eigenvalue -t/2 lies 2.5e-11 or more from the
    # tolerance -1e-10, so the closed form must decide as eigvalsh does.
    rng = np.random.default_rng(4)
    for t in (-1e-9, 1e-11, 1.5e-10, 2.5e-10, 1e-9):
        for _ in range(40):
            v = rng.standard_normal(3)
            v *= (1.0 + t) / np.linalg.norm(v)
            rho = 0.5 * (ID2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
            if np.linalg.eigvalsh(rho)[0] >= -1e-10:
                validate_density(rho)
            else:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    validate_density(rho)


@pytest.mark.parametrize("eps, accepted", [(5e-11, True), (2e-10, False)])
def test_validate_density_positivity_bound_off_the_diagonal(eps, accepted):
    # U diag(1 + eps, -eps) U^dag with a complex rotation U: the least
    # eigenvalue -eps lies in the off-diagonal entries, against the
    # tolerance 1e-10.
    a, phase = 0.7, np.exp(0.4j)
    u = np.array([[np.cos(a), -np.conj(phase) * np.sin(a)],
                  [phase * np.sin(a), np.cos(a)]])
    rho = u @ np.diag([1.0 + eps, -eps]) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    assert abs(rho[0, 1]) > 0.4
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-eps, abs=1e-15)
    if accepted:
        np.testing.assert_array_equal(validate_density(rho), rho)
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(rho)
