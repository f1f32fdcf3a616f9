from functools import partial

import numpy as np
import pytest

from oracles import bloch_to_density, maximize_over_pure_states
from qtradeoff.instruments import (
    DiagonalFamilyParams,
    Instrument,
    OptimalFamilyParams,
    Povm,
    apply_channel,
    make_diagonal_instrument,
    make_optimal_instrument,
    povm_of,
)
from qtradeoff.measures import (
    HS_TO_TRACE_NORM_SCALE,
    MeasureKind,
    UnknownKind,
    _PROBE_STATES,
    _bloch_affine,
    diagonal_channel_disturbance_exact,
    disturbance,
    disturbance_estimate,
    measurement_error,
)
from qtradeoff.qmath import ID2, SIGMA_X, dag
from qtradeoff.schemes import (
    MarginalChannelSpec, diagonal_tradeoff_point, optimal_frontier)
from qtradeoff.verification import _random_instrument
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


def test_diagonal_error_closed_form_is_lower_bound_off_locus():
    # Off the symmetric locus the closed form max(b1^2, b2^2) is still the
    # exact supremum, so the lower bound holds with equality.
    p = DiagonalFamilyParams(0.9, 0.1)
    pt = diagonal_tradeoff_point(p)
    exact = measurement_error(povm_of(make_diagonal_instrument(p)))
    assert exact == pytest.approx(max(p.b1**2, p.b2**2), abs=1e-12)
    assert pt.delta <= exact + 1e-12
    assert pt.delta == pytest.approx(0.81, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        exact = measurement_error(povm_of(make_diagonal_instrument(p)))
        assert diagonal_tradeoff_point(p).delta == pytest.approx(exact, abs=1e-12)


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


def test_diagonal_closed_form_agrees_with_numeric():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        assert disturbance(ins, MeasureKind.WORST_TRACE) == pytest.approx(
            diagonal_tradeoff_point(p).Delta, abs=1e-12)


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


def test_unknown_kind_rejected():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    with pytest.raises(UnknownKind):
        disturbance(ins, "nonsense")


def test_diamond_of_bare_callable_equals_its_channel():
    # Every kind reads a channel through the same four probe states, so a
    # bare callable's diamond value and gap are its channel's, bit for bit.
    rng = np.random.default_rng(11)
    pairs = [(ins, partial(apply_channel, ins))
             for ins in (_random_instrument(rng) for _ in range(5))]
    spec = MarginalChannelSpec(0.35, bloch_to_density([0.3, -0.4, 0.5]))
    pairs.append((spec, spec.apply))
    for channel, bare in pairs:
        est = disturbance_estimate(channel, MeasureKind.DIAMOND)
        bare_est = disturbance_estimate(bare, MeasureKind.DIAMOND)
        assert bare_est.value == est.value
        assert bare_est.certified_gap == est.certified_gap
        assert est.method == bare_est.method == "certified"


def test_channels_are_callables_on_states():
    # ins(rho) is apply_channel(ins, rho) and spec(rho) is spec.apply(rho),
    # bit for bit, on the probe states and on random (unnormalised) inputs.
    rng = np.random.default_rng(5)
    states = list(_PROBE_STATES)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        states += [a @ dag(a) / np.trace(a @ dag(a)).real, a]
    ins = _random_instrument(rng)
    spec = MarginalChannelSpec(0.35, bloch_to_density([0.3, -0.4, 0.5]))
    for rho in states:
        assert np.array_equal(ins(rho), apply_channel(ins, rho))
        assert np.array_equal(spec(rho), spec.apply(rho))


def _random_spec(rng):
    # A random weight and a random replacement, mixed or pure.
    r = rng.standard_normal(3)
    r *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
    return MarginalChannelSpec(rng.uniform(), bloch_to_density(r))


def test_channels_map_stacks_of_states():
    # ch(stack)[i] is ch(stack[i]) bit for bit, for any leading shape.
    rng = np.random.default_rng(8)
    stack = (rng.standard_normal((3, 5, 2, 2))
             + 1j * rng.standard_normal((3, 5, 2, 2)))
    for ch in (partial(apply_channel, _random_instrument(rng)),
               _random_spec(rng).apply):
        images = ch(stack)
        assert images.shape == stack.shape
        for i in np.ndindex(stack.shape[:2]):
            assert images[i].tobytes() == ch(stack[i]).tobytes()


def test_stacked_bloch_map_equals_the_per_probe_one():
    # The package's channels map the probe stack in one call; a bare
    # callable wrapping them maps it one probe at a time.  Both give the
    # same (M, t), bit for bit.
    rng = np.random.default_rng(30)
    for _ in range(1000):
        for channel in (_random_instrument(rng), _random_spec(rng)):
            m, t = _bloch_affine(channel)
            m_bare, t_bare = _bloch_affine(lambda rho: channel(rho))
            assert m.tobytes() == m_bare.tobytes()
            assert t.tobytes() == t_bare.tobytes()


@pytest.mark.parametrize("cls, channel", [
    (Instrument, _random_instrument(np.random.default_rng(4))),
    (MarginalChannelSpec, MarginalChannelSpec(0.35, bloch_to_density(
        [0.3, -0.4, 0.5])))])
def test_package_channels_are_called_once_per_estimate(monkeypatch, cls,
                                                        channel):
    shapes = []
    apply = cls.__call__

    def spy(self, rho):
        shapes.append(np.shape(rho))
        return apply(self, rho)

    monkeypatch.setattr(cls, "__call__", spy)
    for kind in MeasureKind:
        shapes.clear()
        disturbance_estimate(channel, kind)
        assert shapes == [(4, 2, 2)]


def test_bare_callables_are_called_once_per_probe_state():
    shapes = []
    ins = _random_instrument(np.random.default_rng(4))

    def bare(rho):
        shapes.append(np.shape(rho))
        return ins(rho)

    for kind in MeasureKind:
        shapes.clear()
        disturbance_estimate(bare, kind)
        assert shapes == [(2, 2)] * 4


def test_bare_callable_for_one_matrix_keeps_its_bloch_map():
    # np.trace(rho) of a stack would trace its first two axes, so this
    # callable only works one 2x2 state at a time.
    m, t = _bloch_affine(lambda rho: 0.5 * np.trace(rho) * np.eye(2))
    assert np.array_equal(m, np.zeros((3, 3)))
    assert np.array_equal(t, np.zeros(3))
    assert disturbance(lambda rho: 0.5 * np.trace(rho) * np.eye(2)) == 0.5


def test_probe_states_are_read_only():
    # Every estimate shares the probe stack, so a callable that writes into
    # its input must not change what later estimates read.
    def scale_in_place(rho):
        rho *= 2.0
        return rho

    with pytest.raises(ValueError, match="read-only"):
        disturbance(scale_in_place)
    assert np.array_equal(_PROBE_STATES[0], 0.5 * ID2)


@pytest.mark.parametrize("channel", [
    Povm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 3])
def test_disturbance_of_a_non_callable_raises_type_error(channel):
    name = type(channel).__name__
    for kind in MeasureKind:
        with pytest.raises(TypeError,
                           match=f"cannot interpret {name} as a channel"):
            disturbance_estimate(channel, kind)


# ---------------------------------------------------------------------------
# optimal-family examples and the frontier
# ---------------------------------------------------------------------------

def test_optimal_family_tradeoff_examples():
    for gamma, delta, Delta, tol in ((0.0, 0.5, 0.0, 1e-9),
                                     (1.0, 0.0, 0.5, 1e-9),
                                     (0.5, 0.25, FRONTIER_QUARTER, 1e-8)):
        ins = make_optimal_instrument(OptimalFamilyParams(gamma))
        assert measurement_error(povm_of(ins)) == pytest.approx(delta, abs=tol)
        assert disturbance(ins) == pytest.approx(Delta, abs=tol)


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
# axioms (the sampled checker is tested in test_verification.py)
# ---------------------------------------------------------------------------

def test_convexity_edge_mixtures_are_equalities():
    rng = np.random.default_rng(5)
    from qtradeoff.verification import _mix_povm, _random_povm

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
