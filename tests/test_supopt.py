import numpy as np
import pytest

from qtradeoff.instruments import OptimalFamilyParams, apply_channel, make_optimal_instrument
from qtradeoff.qmath import SIGMA_Z, trace_norm
from qtradeoff.states import density_to_bloch
from qtradeoff.supopt import (
    DegenerateFit,
    SupremumStrategy,
    maximize_over_bipartite_pure_states,
    maximize_over_bloch_ball,
    maximize_over_pure_states,
    parabolic_refine,
)

SMALL = SupremumStrategy(coarse_grid_points=16, refine_iterations=60,
                         tolerance=1e-8, multistarts=4)


# ---------------------------------------------------------------------------
# maximize_over_pure_states
# ---------------------------------------------------------------------------

def test_constant_objective():
    est = maximize_over_pure_states(lambda rho: 0.7, SMALL)
    assert est.value == pytest.approx(0.7)
    assert est.certified_gap == pytest.approx(0.0)


def test_linear_objective_peaks_at_pole():
    est = maximize_over_pure_states(
        lambda rho: np.einsum("ij,ji->", SIGMA_Z, rho).real, SMALL)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    # argmax is the +z pole
    from qtradeoff.states import pure_state
    assert density_to_bloch(pure_state(*est.params))[2] == pytest.approx(1.0, abs=1e-4)


def test_dephasing_disturbance_peaks_on_equator():
    ins = make_optimal_instrument(OptimalFamilyParams(1.0))

    def f(rho):
        return 0.5 * trace_norm(apply_channel(ins, rho) - rho)

    est = maximize_over_pure_states(f, SMALL)
    assert est.value == pytest.approx(0.5, abs=1e-9)
    from qtradeoff.states import pure_state
    z = density_to_bloch(pure_state(*est.params))[2]
    assert abs(z) < 1e-4


def test_grid_dominance_and_determinism():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = h + h.conj().T

    def f(rho):
        return abs(np.einsum("ij,ji->", h, rho).real) ** 1.3

    # brute grid reference
    from qtradeoff.states import pure_state
    grid_best = max(
        f(pure_state(t, p))
        for t in np.linspace(0, np.pi, SMALL.coarse_grid_points)
        for p in np.linspace(0, 2 * np.pi, SMALL.coarse_grid_points, endpoint=False))
    a = maximize_over_pure_states(f, SMALL)
    b = maximize_over_pure_states(f, SMALL)
    assert a.value >= grid_best - 1e-12
    assert a.certified_gap <= 0.0 + 1e-12
    assert a.value == b.value
    assert np.array_equal(a.params, b.params)


def test_strategy_validation():
    with pytest.raises(ValueError):
        SupremumStrategy(coarse_grid_points=0)
    with pytest.raises(ValueError):
        SupremumStrategy(tolerance=0.0)


# ---------------------------------------------------------------------------
# maximize_over_bipartite_pure_states
# ---------------------------------------------------------------------------

def test_bipartite_constant():
    est = maximize_over_bipartite_pure_states(lambda v: 0.3, SMALL)
    assert est.value == pytest.approx(0.3)


def test_bipartite_overlap_objective():
    target = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)

    def f(v):
        return abs(np.vdot(target, v)) ** 2

    est = maximize_over_bipartite_pure_states(f, SMALL)
    assert est.value == pytest.approx(1.0, abs=1e-7)


def test_bipartite_determinism():
    def f(v):
        return abs(v[0]) ** 2 + 0.5 * abs(v[3]) ** 2

    a = maximize_over_bipartite_pure_states(f, SMALL)
    b = maximize_over_bipartite_pure_states(f, SMALL)
    assert a.value == b.value
    assert np.array_equal(a.params, b.params)
    assert a.value == pytest.approx(1.0, abs=1e-8)


def test_bipartite_extra_starts_are_used():
    target = np.array([0.25, -0.5, 0.75, 0.1], dtype=complex)
    target /= np.linalg.norm(target)

    def f(v):
        # extremely narrow peak: only the injected start will find it
        return float(abs(np.vdot(target, v)) ** 200)

    tiny = SupremumStrategy(coarse_grid_points=4, refine_iterations=5,
                            tolerance=1e-8, multistarts=1)
    with_start = maximize_over_bipartite_pure_states(f, tiny, extra_starts=[target])
    assert with_start.value == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# maximize_over_bloch_ball
# ---------------------------------------------------------------------------

def test_ball_linear_objective_peaks_on_the_sphere():
    n = np.array([1.0, -2.0, 2.0]) / 3.0
    est = maximize_over_bloch_ball(lambda r: r @ n, SMALL)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(est.params) <= 1.0
    assert np.allclose(est.params, n, atol=1e-4)


def test_ball_interior_maximum_and_determinism():
    c = np.array([0.2, 0.1, -0.3])

    def f(r):
        return -np.sum((r - c) ** 2, axis=1)

    a = maximize_over_bloch_ball(f, SMALL)
    b = maximize_over_bloch_ball(f, SMALL)
    assert a.value == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(a.params, c, atol=1e-5)
    assert a.certified_gap <= 0.0
    assert a.value == b.value and np.array_equal(a.params, b.params)


def test_ball_centre_and_extra_starts_are_used():
    target = np.array([0.0, 0.6, -0.8])

    def narrow(center):
        # extremely narrow peaks: only a start at the peak finds it
        return lambda r: np.exp(-1e6 * np.sum((r - center) ** 2, axis=1))

    tiny = SupremumStrategy(coarse_grid_points=2, refine_iterations=2,
                            tolerance=1e-8, multistarts=1)
    assert maximize_over_bloch_ball(narrow(np.zeros(3)), tiny).value == 1.0
    assert maximize_over_bloch_ball(narrow(target), tiny).value < 1e-3
    with_start = maximize_over_bloch_ball(narrow(target), tiny,
                                          extra_starts=[target])
    assert with_start.value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# parabolic_refine
# ---------------------------------------------------------------------------

def test_parabola_exact_vertex():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ys = -((xs - 2.0) ** 2) + 5.0
    est = parabolic_refine(np.column_stack([xs, ys]))
    assert est.params[0] == pytest.approx(2.0, abs=1e-10)
    assert est.value == pytest.approx(5.0, abs=1e-10)
    assert est.certified_gap == pytest.approx(5.0 - est.value, abs=1e-12)


def test_parabola_collinear_degenerate():
    pts = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    with pytest.raises(DegenerateFit):
        parabolic_refine(pts)


def test_parabola_input_validation():
    with pytest.raises(ValueError):
        parabolic_refine([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        parabolic_refine([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])


def test_parabola_least_squares_noise():
    rng = np.random.default_rng(1)
    xs = np.linspace(-1, 1, 21)
    ys = 3.0 - 2.0 * (xs - 0.25) ** 2 + 1e-6 * rng.standard_normal(xs.size)
    est = parabolic_refine(np.column_stack([xs, ys]))
    assert est.params[0] == pytest.approx(0.25, abs=1e-4)
    assert est.value == pytest.approx(3.0, abs=1e-5)
