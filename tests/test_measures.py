import numpy as np
import pytest

from oracles import maximize_over_pure_states
from qtradeoff.instruments import (
    DiagonalFamilyParams,
    OptimalFamilyParams,
    make_diagonal_instrument,
    make_optimal_instrument,
    povm_of,
)
from qtradeoff.measures import (
    HS_TO_TRACE_NORM_SCALE,
    MeasureKind,
    UnknownKind,
    check_measure_axioms,
    diagonal_channel_disturbance_exact,
    diagonal_disturbance_closed_form,
    diagonal_measurement_error_closed_form,
    disturbance,
    measurement_error,
    tradeoff_of,
)
from qtradeoff.qmath import ID2, SIGMA_X, dag
from qtradeoff.schemes import optimal_frontier
from qtradeoff.supopt import SupremumStrategy

FAST = SupremumStrategy(coarse_grid_points=24, refine_iterations=60,
                        tolerance=1e-8, multistarts=4)

FRONTIER_QUARTER = 0.5 * (np.sqrt(0.75) - 0.5) ** 2  # 0.066987...


# ---------------------------------------------------------------------------
# brute-force oracles (independent of supopt and qmath)
# ---------------------------------------------------------------------------

def _sphere_samples(n_theta=181, n_phi=90):
    for t in np.linspace(0.0, np.pi, n_theta):
        for p in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
            c, s = np.cos(0.5 * t), np.sin(0.5 * t)
            psi = np.array([c, np.exp(1j * p) * s])
            yield np.outer(psi, psi.conj())


def oracle_measurement_error(povm):
    e1t = np.diag([1.0, 0.0])
    e2t = np.diag([0.0, 1.0])
    best = 0.0
    for rho in _sphere_samples():
        v = 0.5 * (abs(np.trace((povm.e1 - e1t) @ rho).real)
                   + abs(np.trace((povm.e2 - e2t) @ rho).real))
        best = max(best, v)
    return best


def oracle_disturbance_trace(ins):
    best = 0.0
    for rho in _sphere_samples():
        out = ins.k1 @ rho @ dag(ins.k1) + ins.k2 @ rho @ dag(ins.k2)
        best = max(best, 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out - rho))))
    return best


# ---------------------------------------------------------------------------
# measurement error
# ---------------------------------------------------------------------------

def test_error_zero_for_target():
    ins = make_optimal_instrument(OptimalFamilyParams(1.0))
    assert measurement_error(povm_of(ins)) == pytest.approx(0.0, abs=1e-12)


def test_error_half_for_flat_povm():
    ins = make_optimal_instrument(OptimalFamilyParams(0.0))
    assert measurement_error(povm_of(ins)) == pytest.approx(0.5, abs=1e-9)


def test_error_optimal_family_closed_form():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    d = measurement_error(povm_of(ins))
    assert d == pytest.approx(0.25, abs=1e-9)
    # independent grid-supremum oracle
    assert d == pytest.approx(oracle_measurement_error(povm_of(ins)), abs=1e-6)


def test_error_exact_matches_numeric_on_random_povms():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        e1 = u @ np.diag(rng.uniform(0, 1, 2)) @ dag(u)
        e1 = 0.5 * (e1 + dag(e1))
        from qtradeoff.instruments import Povm
        povm = Povm(e1, ID2 - e1)
        a1, a2 = povm.e1 - np.diag([1.0, 0.0]), povm.e2 - np.diag([0.0, 1.0])
        numeric = maximize_over_pure_states(
            lambda rho: 0.5 * (abs(np.trace(a1 @ rho).real)
                               + abs(np.trace(a2 @ rho).real)), FAST).value
        assert measurement_error(povm) == pytest.approx(numeric, abs=1e-8)


def test_diagonal_error_closed_form_on_symmetric_locus():
    for b in (0.0, 0.3, np.sqrt(0.5), 0.9):
        p = DiagonalFamilyParams(b, b)
        closed = diagonal_measurement_error_closed_form(p)
        numeric = measurement_error(povm_of(make_diagonal_instrument(p)))
        assert closed == pytest.approx(b * b, abs=1e-15)
        assert numeric == pytest.approx(closed, abs=1e-8)


def test_diagonal_error_closed_form_is_lower_bound_off_locus():
    p = DiagonalFamilyParams(0.9, 0.1)
    closed = diagonal_measurement_error_closed_form(p)
    exact = measurement_error(povm_of(make_diagonal_instrument(p)))
    assert exact == pytest.approx(max(p.b1**2, p.b2**2), abs=1e-12)
    assert closed <= exact + 1e-12


# ---------------------------------------------------------------------------
# disturbance
# ---------------------------------------------------------------------------

def test_disturbance_zero_for_identity_all_kinds():
    ins = make_optimal_instrument(OptimalFamilyParams(0.0))
    for kind in MeasureKind:
        assert disturbance(ins, kind) == pytest.approx(0.0, abs=1e-10)


def test_disturbance_half_for_projective():
    ins = make_optimal_instrument(OptimalFamilyParams(1.0))
    assert disturbance(ins, MeasureKind.WORST_TRACE) == pytest.approx(0.5, abs=1e-9)


def test_disturbance_matches_brute_force_oracle():
    ins = make_diagonal_instrument(DiagonalFamilyParams(0.4, 0.7, 0.9, 2.1))
    num = disturbance(ins, MeasureKind.WORST_TRACE)
    assert num == pytest.approx(oracle_disturbance_trace(ins), abs=1e-6)
    assert num == pytest.approx(diagonal_channel_disturbance_exact(ins), abs=1e-9)


def test_diagonal_disturbance_closed_form_examples():
    b = np.sqrt(0.5)
    assert diagonal_disturbance_closed_form(DiagonalFamilyParams(b, b)) == pytest.approx(0.0, abs=1e-15)
    assert diagonal_disturbance_closed_form(DiagonalFamilyParams(0.0, 0.0)) == pytest.approx(0.5)
    val = diagonal_disturbance_closed_form(DiagonalFamilyParams(0.5, 0.5))
    assert val == pytest.approx(0.5 * (1.0 - np.sqrt(3.0) / 2.0), abs=1e-12)
    assert val == pytest.approx(optimal_frontier(0.25), abs=1e-12)
    assert val == pytest.approx(FRONTIER_QUARTER, abs=1e-12)


def test_diagonal_closed_form_agrees_with_numeric():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        assert disturbance(ins, MeasureKind.WORST_TRACE) == pytest.approx(
            diagonal_disturbance_closed_form(p), abs=1e-8)


def test_diamond_equals_trace_norm_on_optimal_family():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    d_tr = disturbance(ins, MeasureKind.WORST_TRACE)
    d_di = disturbance(ins, MeasureKind.DIAMOND)
    assert d_di >= d_tr - 1e-12
    assert abs(d_di - d_tr) < 1e-4


def test_diamond_dominates_trace_norm_off_the_optimal_family():
    ins = make_diagonal_instrument(DiagonalFamilyParams(0.3, 0.8, 1.1, 0.2))
    d_tr = disturbance(ins, MeasureKind.WORST_TRACE)
    d_di = disturbance(ins, MeasureKind.DIAMOND)
    assert d_di >= d_tr - 1e-12


def test_hs_kind_scale_factor():
    # the disturbance difference is always traceless here, so the trace
    # and Hilbert-Schmidt norms differ by exactly sqrt(2)
    for gamma in (0.3, 0.8):
        ins = make_optimal_instrument(OptimalFamilyParams(gamma))
        tr = disturbance(ins, MeasureKind.WORST_TRACE)
        hs = disturbance(ins, MeasureKind.WORST_HS)
        assert tr == pytest.approx(HS_TO_TRACE_NORM_SCALE * hs, abs=1e-8)


def test_infidelity_equals_trace_norm_on_optimal_family():
    for gamma in (0.2, 0.6):
        ins = make_optimal_instrument(OptimalFamilyParams(gamma))
        tr = disturbance(ins, MeasureKind.WORST_TRACE)
        inf = disturbance(ins, MeasureKind.WORST_INFIDELITY)
        assert inf == pytest.approx(tr, abs=1e-6)


def test_averaged_below_worst_case():
    rng = np.random.default_rng(2)
    for _ in range(3):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        avg = disturbance(ins, MeasureKind.AVG_TRACE)
        worst = disturbance(ins, MeasureKind.WORST_TRACE)
        assert avg <= worst + 1e-10
        # diagonal channels: surface average is exactly pi/4 of the peak
        assert avg == pytest.approx(np.pi / 4.0 * worst, abs=1e-6)


def test_averaged_ball_domain_below_surface():
    ins = make_optimal_instrument(OptimalFamilyParams(0.7))
    surf = disturbance(ins, MeasureKind.AVG_TRACE, average_domain="surface")
    ball = disturbance(ins, MeasureKind.AVG_TRACE, average_domain="ball")
    assert ball < surf
    assert ball == pytest.approx(0.75 * surf, abs=1e-6)  # mean radius 3/4


def test_unknown_kind_rejected():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    with pytest.raises(UnknownKind):
        disturbance(ins, "nonsense")
    with pytest.raises(ValueError):
        disturbance(ins, MeasureKind.AVG_TRACE, average_domain="shell")


def test_diamond_rejects_bare_callable():
    with pytest.raises(TypeError):
        disturbance(lambda rho: rho, MeasureKind.DIAMOND)


# ---------------------------------------------------------------------------
# tradeoff_of and the frontier
# ---------------------------------------------------------------------------

def test_tradeoff_of_examples():
    pt = tradeoff_of(make_optimal_instrument(OptimalFamilyParams(0.0)))
    assert pt.delta == pytest.approx(0.5, abs=1e-9)
    assert pt.Delta == pytest.approx(0.0, abs=1e-10)
    assert pt.tag == {"family": "optimal", "gamma": 0.0, "beta": 0.0,
                      "kind": "worst-case-trace-norm"}
    pt = tradeoff_of(make_optimal_instrument(OptimalFamilyParams(1.0)))
    assert pt.delta == pytest.approx(0.0, abs=1e-10)
    assert pt.Delta == pytest.approx(0.5, abs=1e-9)
    pt = tradeoff_of(make_optimal_instrument(OptimalFamilyParams(0.5)))
    assert pt.delta == pytest.approx(0.25, abs=1e-8)
    assert pt.Delta == pytest.approx(FRONTIER_QUARTER, abs=1e-8)
    assert pt.tag["gamma"] == 0.5


def test_frontier_tightness_closed_forms():
    for gamma in np.linspace(0.0, 1.0, 11):
        delta = 0.5 * (1.0 - gamma)
        Delta = 0.5 * (1.0 - np.sqrt(1.0 - gamma**2))
        assert Delta == pytest.approx(optimal_frontier(delta), abs=1e-12)


def test_frontier_validity_random_diagonal_instruments():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        delta = measurement_error(povm_of(ins))
        Delta = diagonal_channel_disturbance_exact(ins)
        assert Delta >= optimal_frontier(min(delta, 1.0)) - 1e-7


def test_linear_polarization_circle_attains_suprema():
    # the y = 0 great circle suffices for both measures of the
    # implemented families, phases included
    from qtradeoff.states import linear_pol_state

    ins = make_diagonal_instrument(DiagonalFamilyParams(0.35, 0.6, 1.2, 0.4))
    thetas = np.linspace(0.0, 360.0, 1441)
    e1 = povm_of(ins).e1 - np.diag([1.0, 0.0])
    circle_err = max(abs(np.trace(e1 @ linear_pol_state(t)).real) for t in thetas)
    assert measurement_error(povm_of(ins)) == pytest.approx(circle_err, abs=1e-6)

    def dist(t):
        rho = linear_pol_state(t)
        out = ins.k1 @ rho @ dag(ins.k1) + ins.k2 @ rho @ dag(ins.k2)
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out - rho)))

    circle_dist = max(dist(t) for t in thetas)
    assert disturbance(ins, MeasureKind.WORST_TRACE) == pytest.approx(
        circle_dist, abs=1e-6)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axiom_checker_passes_and_reports():
    rng = np.random.default_rng(4)
    report = check_measure_axioms(10, rng)
    assert report.all_passed
    assert report.worst_of("delta-convexity") < 1e-8
    assert report.worst_of("Delta-basis-independence") < 1e-6
    with pytest.raises(KeyError):
        report.worst_of("nope")


def test_axiom_checker_rejects_zero_samples():
    with pytest.raises(ValueError):
        check_measure_axioms(0, np.random.default_rng(0))


def test_convexity_edge_mixtures_are_equalities():
    rng = np.random.default_rng(5)
    from qtradeoff.measures import _mix_povm, _random_povm

    for _ in range(10):
        m, mp = _random_povm(rng), _random_povm(rng)
        for lam in (0.0, 1.0):
            mix = _mix_povm(m, mp, lam)
            ref = measurement_error(m) if lam == 1.0 else measurement_error(mp)
            assert measurement_error(mix) == pytest.approx(ref, abs=1e-10)


def test_basis_independence_sigma_x_instance():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    base = disturbance(ins, MeasureKind.WORST_TRACE)

    def rotated(rho):
        inner = SIGMA_X @ rho @ SIGMA_X
        out = ins.k1 @ inner @ dag(ins.k1) + ins.k2 @ inner @ dag(ins.k2)
        return SIGMA_X @ out @ SIGMA_X

    assert disturbance(rotated, MeasureKind.WORST_TRACE) == pytest.approx(
        base, abs=1e-6)
