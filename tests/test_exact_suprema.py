"""Property tests of the exact state suprema against the numeric oracle.

Every exact kind is cross-checked against ``maximize_over_pure_states``
(coarse grid plus Nelder-Mead) at a dense strategy, with objectives built
here from 2x2 matrices and ``numpy.linalg.eigvalsh`` only.  The exact value
is a true supremum, so it may exceed the oracle by its convergence error
but may not fall below it by more than rounding.

The diamond kind's deterministic solve is cross-checked the same way
against ``maximize_over_bipartite_pure_states`` on the 4x4 objective
(1/2)||(T (x) id)(v v^dag) - v v^dag||_1, built here from the Kraus pair
or the replacement form; its dual upper bound must lie at or above the
oracle's value.  It is also checked against ``reference_diamond``, the
solve as it was with scipy's BFGS, Kronecker-built Choi matrix and a
dual bound taken one shrink at a time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from oracles import maximize_over_bipartite_pure_states, maximize_over_pure_states
from qtradeoff import verification
from qtradeoff.instruments import (
    Instrument,
    OptimalFamilyParams,
    Povm,
    apply_channel,
    make_optimal_instrument,
    povm_of,
)
from qtradeoff.measures import (
    MeasureKind,
    TARGET_POVM,
    _bloch_affine,
    _channel_map,
    _dual_bound,
    _random_instrument,
    _random_povm,
    _random_unitary,
    _worst_trace,
    disturbance_estimate,
    measurement_error_estimate,
)
from qtradeoff.qmath import SIGMA_X, SIGMA_Y, SIGMA_Z, dag
from qtradeoff.schemes import MarginalChannelSpec
from qtradeoff.states import bloch_to_density, pure_state
from qtradeoff.supopt import SupremumStrategy

DENSE = SupremumStrategy(coarse_grid_points=48, refine_iterations=200,
                         tolerance=1e-12, multistarts=8)
EXACT_KINDS = (MeasureKind.WORST_TRACE, MeasureKind.WORST_HS,
               MeasureKind.WORST_INFIDELITY)
# The strategy of tests/test_measures.py, for the bipartite oracle.
FAST = SupremumStrategy(coarse_grid_points=24, refine_iterations=60,
                        tolerance=1e-8, multistarts=4)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def oracle_objective(apply2, kind):
    def trace(rho):
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(apply2(rho) - rho)))

    def hs(rho):
        return 0.5 * np.linalg.norm(apply2(rho) - rho)

    def infidelity(rho):
        return 1.0 - np.trace(rho @ apply2(rho)).real

    return {MeasureKind.WORST_TRACE: trace, MeasureKind.WORST_HS: hs,
            MeasureKind.WORST_INFIDELITY: infidelity}[kind]


def error_objective(povm):
    a1 = povm.e1 - TARGET_POVM.e1
    a2 = povm.e2 - TARGET_POVM.e2
    return lambda rho: 0.5 * (abs(np.trace(a1 @ rho).real)
                              + abs(np.trace(a2 @ rho).real))


def assert_matches_oracle(est, f):
    oracle = maximize_over_pure_states(f, DENSE).value
    assert est.value >= oracle - 1e-12
    assert abs(est.value - oracle) <= 1e-8
    # the reported argmax attains the value
    assert f(pure_state(*est.params)) == pytest.approx(est.value, abs=1e-12)
    assert est.method == "exact" and est.certified_gap == 0.0


def check_channel(channel, apply2):
    for kind in EXACT_KINDS:
        assert_matches_oracle(disturbance_estimate(channel, kind),
                              oracle_objective(apply2, kind))


def random_replacement(rng):
    w = float(rng.uniform())
    v = rng.standard_normal(3)
    v *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
    return MarginalChannelSpec(w, bloch_to_density(v))


def random_mixture(rng):
    # Convex mixture of a random instrument channel and a unitary
    # conjugation, rotated into a random basis: a bare linear callable.
    ins = _random_instrument(rng)
    u, v = _random_unitary(rng), _random_unitary(rng)
    lam = float(rng.uniform())

    def apply2(rho):
        inner = dag(v) @ rho @ v
        out = lam * apply_channel(ins, inner) + (1.0 - lam) * u @ inner @ dag(u)
        return v @ out @ dag(v)

    return apply2


def random_unital(rng):
    # Mixture of two unitary conjugations: t = 0, the hard case.
    u1, u2 = _random_unitary(rng), _random_unitary(rng)
    lam = float(rng.uniform())
    return lambda rho: lam * u1 @ rho @ dag(u1) + (1 - lam) * u2 @ rho @ dag(u2)


# ---------------------------------------------------------------------------
# random channels
# ---------------------------------------------------------------------------

@PROPERTY
@given(seeds)
def test_random_instruments(seed):
    ins = _random_instrument(np.random.default_rng(seed))
    check_channel(ins, lambda rho: apply_channel(ins, rho))
    assert_matches_oracle(measurement_error_estimate(povm_of(ins)),
                          error_objective(povm_of(ins)))


@PROPERTY
@given(seeds)
def test_random_replacement_channels(seed):
    spec = random_replacement(np.random.default_rng(seed))
    check_channel(spec, spec.apply)


@PROPERTY
@given(seeds)
def test_random_bare_callable_mixtures(seed):
    apply2 = random_mixture(np.random.default_rng(seed))
    check_channel(apply2, apply2)


@PROPERTY
@given(seeds)
def test_random_unital_channels(seed):
    apply2 = random_unital(np.random.default_rng(seed))
    check_channel(apply2, apply2)


@PROPERTY
@given(seeds)
def test_random_povm_pairs(seed):
    # Independent effects: E'_1 + E'_2 need not be the identity, so every
    # sign pattern of the two summands matters.
    rng = np.random.default_rng(seed)
    povm = Povm(_random_povm(rng).e1, _random_povm(rng).e1)
    assert_matches_oracle(measurement_error_estimate(povm),
                          error_objective(povm))


# ---------------------------------------------------------------------------
# hard cases: b without a component on the top eigenspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_optimal_family_unital(gamma):
    ins = make_optimal_instrument(OptimalFamilyParams(gamma))
    check_channel(ins, lambda rho: apply_channel(ins, rho))
    expected = 0.5 * (1.0 - np.sqrt(1.0 - gamma**2))
    assert disturbance_estimate(ins).value == pytest.approx(expected, abs=1e-15)
    assert measurement_error_estimate(povm_of(ins)).value == pytest.approx(
        0.5 * (1.0 - gamma), abs=1e-15)


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
def test_maximally_mixed_replacement(w):
    # M = (1 - w) 1 and t = 0: every direction is a maximizer.
    spec = MarginalChannelSpec(w, 0.5 * np.eye(2))
    check_channel(spec, spec.apply)
    assert disturbance_estimate(spec).value == pytest.approx(0.5 * w, abs=1e-15)


def test_pure_replacement_peaks_opposite_the_replacement():
    spec = MarginalChannelSpec(0.4, bloch_to_density([0.0, 0.0, 1.0]))
    check_channel(spec, spec.apply)
    est = disturbance_estimate(spec)
    assert est.value == pytest.approx(0.4, abs=1e-15)
    assert est.params[0] == pytest.approx(np.pi, abs=1e-12)


def test_identity_channel_infidelity_reads_zero():
    # (1 - r.(M r + t)) / 2 with M = 1 up to rounding is clamped at 0: a
    # supremum of a nonnegative quantity never reads negative.
    ins = make_optimal_instrument(OptimalFamilyParams(0.0))
    for channel in (ins, lambda rho: apply_channel(ins, rho), lambda rho: rho):
        assert disturbance_estimate(
            channel, MeasureKind.WORST_INFIDELITY).value == 0.0
        for kind in (MeasureKind.WORST_TRACE, MeasureKind.WORST_HS):
            assert 0.0 <= disturbance_estimate(channel, kind).value <= 1e-15


# ---------------------------------------------------------------------------
# averaged kind: the vectorised quadrature against the scalar loop
# ---------------------------------------------------------------------------

def loop_average(apply2, radii=(1.0,), radial_weights=(1.0,)):
    # Reference: the same Gauss-Legendre x trapezoid rule, one state at a
    # time, with the trace distance from numpy's eigenvalues.
    x, w = np.polynomial.legendre.leggauss(48)
    thetas = 0.5 * np.pi * (x + 1.0)
    phis = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
    total = 0.0
    for rad, wr in zip(radii, radial_weights):
        for th, wt in zip(thetas, 0.25 * np.pi * w * np.sin(thetas)):
            for ph in phis:
                rho = 0.5 * (np.eye(2) + rad * (
                    np.sin(th) * np.cos(ph) * SIGMA_X
                    + np.sin(th) * np.sin(ph) * SIGMA_Y
                    + np.cos(th) * SIGMA_Z))
                diff = apply2(rho) - rho
                total += wr * wt * 0.5 * np.sum(
                    np.abs(np.linalg.eigvalsh(diff))) / len(phis)
    return total


@pytest.mark.parametrize("seed", [0, 1])
def test_averaged_quadrature_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    spec = random_replacement(rng)
    apply2 = random_mixture(rng)
    for channel, f in ((spec, spec.apply), (apply2, apply2)):
        est = disturbance_estimate(channel, MeasureKind.AVG_TRACE)
        assert est.value == pytest.approx(loop_average(f), abs=1e-13)


def test_averaged_ball_matches_scalar_loop():
    spec = random_replacement(np.random.default_rng(2))
    r, w = np.polynomial.legendre.leggauss(32)
    radii = 0.5 * (r + 1.0)
    ball = disturbance_estimate(spec, MeasureKind.AVG_TRACE,
                                average_domain="ball").value
    assert ball == pytest.approx(
        loop_average(spec.apply, radii, 1.5 * radii**2 * w), abs=1e-13)


# ---------------------------------------------------------------------------
# diamond kind: the deterministic solve against the bipartite oracle
# ---------------------------------------------------------------------------

def bipartite_objective(channel):
    # (T (x) id) on 4x4 operators, system first, from numpy only.
    if isinstance(channel, Instrument):
        kraus = [np.kron(k, np.eye(2)) for k in (channel.k1, channel.k2)]

        def apply4(x):
            return sum(k @ x @ k.conj().T for k in kraus)
    else:
        def apply4(x):
            ancilla = np.einsum("kikj->ij", x.reshape(2, 2, 2, 2))
            return (channel.weight * np.kron(channel.replacement, ancilla)
                    + (1.0 - channel.weight) * x)

    def f(v):
        xi = np.outer(v, v.conj())
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(apply4(xi) - xi)))

    return f


def check_diamond(channel, oracle=True):
    est = disturbance_estimate(channel, MeasureKind.DIAMOND)
    f = bipartite_objective(channel)
    assert est.method == "certified" and est.params.shape == (8,)
    assert 0.0 <= est.certified_gap <= 1e-6
    v = est.params[:4] + 1j * est.params[4:]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # the returned input attains the value on the 4x4 objective
    assert f(v) == pytest.approx(est.value, abs=1e-12)
    worst = disturbance_estimate(channel).value
    assert est.value >= worst - 1e-12
    if oracle:
        bi = maximize_over_bipartite_pure_states(f, FAST).value
        assert est.value >= bi - 1e-9
        assert abs(est.value - bi) <= 1e-6
        # the dual bound holds whatever the solver found
        assert est.value + est.certified_gap >= bi
    return est.value, worst


@PROPERTY
@given(seeds)
def test_diamond_random_instruments(seed):
    check_diamond(_random_instrument(np.random.default_rng(seed)))


@PROPERTY
@given(seeds)
def test_diamond_random_replacement_channels(seed):
    check_diamond(random_replacement(np.random.default_rng(seed)))


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
def test_diamond_maximally_mixed_replacement(w):
    # The maximally entangled input attains 3/4 of the weight.
    value, _ = check_diamond(MarginalChannelSpec(w, 0.5 * np.eye(2)),
                             oracle=False)
    assert value == pytest.approx(0.75 * w, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_diamond_optimal_family_equals_worst_case(gamma):
    ins = make_optimal_instrument(OptimalFamilyParams(gamma))
    value, worst = check_diamond(ins, oracle=False)
    assert value == pytest.approx(worst, abs=1e-15)


# ---------------------------------------------------------------------------
# diamond kind: the numpy solve against the scipy-BFGS reference
# ---------------------------------------------------------------------------

LIFTED = np.kron(np.eye(2), np.stack([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z]))
SHRINKS = 10.0 ** -np.arange(4, 13, 2)


def reference_dual_bound(j, sigma):
    # The dual bound at one state, one shrink at a time, S built with kron.
    w, u = np.linalg.eigh(sigma)
    s, s_inv = (np.kron(np.eye(2), (u * w**p) @ dag(u)) for p in (0.5, -0.5))
    evals, vecs = np.linalg.eigh(s @ j @ s)
    z = s_inv @ (vecs * np.maximum(evals, 0.0)) @ dag(vecs) @ s_inv
    mu = max(0.0, -np.linalg.eigvalsh(z - j)[0], -np.linalg.eigvalsh(z)[0])
    mu += 16.0 * np.finfo(float).eps * (np.linalg.norm(z) + np.linalg.norm(j))
    tr_out = np.einsum("ikil->kl", z.reshape(2, 2, 2, 2))
    return np.linalg.eigvalsh(tr_out)[-1] + 2.0 * mu


def reference_choi(channel):
    apply2 = _channel_map(channel)[0]
    return sum(np.kron(apply2(e) - e, e)
               for e in np.eye(4, dtype=complex).reshape(4, 2, 2))


def reference_diamond(channel):
    """The diamond solve as it was with scipy's BFGS: the same objective,
    starts, floor and dual bound, J built from Kronecker products and the
    bound taken one shrink at a time.  Returns (value, upper)."""
    j = reference_choi(channel)
    r_worst, worst = _worst_trace(*_bloch_affine(_channel_map(channel)[0]))

    def neg(c):
        s = np.tensordot(c, LIFTED, 1)
        evals, vecs = np.linalg.eigh(s @ j @ s)
        n, cc = np.abs(evals).sum(), c @ c
        dn = 2.0 * np.einsum("kab,ba->k", LIFTED,
                             j @ s @ (vecs * np.sign(evals)) @ dag(vecs)).real
        return -n / (4.0 * cc), (2.0 * n * c / cc - dn) / (4.0 * cc)

    mirrored = 0.5 * np.concatenate([[1.0], r_worst * [1.0, -1.0, 1.0]])
    res = min((minimize(neg, c0, jac=True, method="BFGS",
                        options={"gtol": 1e-10})
               for c0 in (np.array([1.0, 0.0, 0.0, 0.0]), mirrored)),
              key=lambda r: r.fun)
    x = np.tensordot(res.x, LIFTED, 1)[:2, :2]
    sigma = x @ x / np.trace(x @ x).real
    value = max(-float(res.fun), float(worst))
    upper = min(reference_dual_bound(j, (1.0 - e) * sigma + 0.5 * e * np.eye(2))
                for e in SHRINKS)
    return value, float(upper)


def check_against_reference(channel):
    """The numpy solve agrees with the scipy one to 1e-12, is never more
    than 1e-12 below it nor above its dual bound, and its certificate
    meets check_diamond's gate.

    Both solvers maximize the same f and stop where it is flat to
    rounding: every gradient entry below 1e-10, which with curvature of
    order one leaves f about 1e-20 below its maximum, or (numpy) a step
    that gains at most 4 eps |f|.  What remains is the rounding of f, the
    sum of the absolute eigenvalues of a 4x4 Hermitian K with ||K|| <= 2:
    eigh's backward error is a small multiple of eps ||K||, so f errs by
    well under 1e-13 at each solver's point.  1e-12 leaves a factor of ten
    over that for weaker curvature; a different local stop would show at
    1e-8 or more.  A solve that fell short by more than rounding would
    show as the one-sided bound.  The reference's upper bound certifies
    the true maximum, which the computed value can exceed only by the
    same rounding of f.
    """
    est = disturbance_estimate(channel, MeasureKind.DIAMOND)
    value, upper = reference_diamond(channel)
    assert abs(est.value - value) <= 1e-12
    assert est.value >= value - 1e-12
    assert est.value <= upper + 1e-12
    assert 0.0 <= est.certified_gap <= 1e-6


REFERENCE_PROPERTY = settings(max_examples=200, deadline=None,
                              derandomize=True)


@REFERENCE_PROPERTY
@given(seeds)
def test_diamond_matches_scipy_reference_on_random_instruments(seed):
    check_against_reference(_random_instrument(np.random.default_rng(seed)))


@REFERENCE_PROPERTY
@given(seeds)
def test_diamond_matches_scipy_reference_on_replacement_channels(seed):
    check_against_reference(random_replacement(np.random.default_rng(seed)))


@PROPERTY
@given(seeds, st.sampled_from([0.3, 0.9, 1.0]))
def test_stacked_dual_bound_matches_per_shrink_loop(seed, radius):
    """One stacked evaluation of the five shrinks against the loop.

    Both run the same operations on every shrink (one LAPACK call per
    matrix, one product per matrix, 1 (x) sqrt(sigma) with exact zeros off
    its blocks), so they should agree to the last bit.  1e-14 relative, a
    few dozen eps, allows only for a different order of the 4-term sums
    in a batched product.  Radius 1 is a pure state, whose 1e-12 shrink
    is the worst conditioned.
    """
    rng = np.random.default_rng(seed)
    channel = (_random_instrument(rng) if seed % 2
               else random_replacement(rng))
    v = rng.standard_normal(3)
    sigma = bloch_to_density(radius * v / np.linalg.norm(v))
    states = ((1.0 - SHRINKS[:, None, None]) * sigma
              + 0.5 * SHRINKS[:, None, None] * np.eye(2))
    j = reference_choi(channel)
    stacked = _dual_bound(j, states)
    loop = np.array([reference_dual_bound(j, x) for x in states])
    assert stacked.shape == loop.shape
    assert np.all(np.abs(stacked - loop) <= 1e-14 * np.abs(loop))


# ---------------------------------------------------------------------------
# methods and input checks
# ---------------------------------------------------------------------------

def test_methods_are_reported():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    avg = disturbance_estimate(ins, MeasureKind.AVG_TRACE)
    assert avg.method == "quadrature" and avg.params.size == 0
    assert disturbance_estimate(ins, MeasureKind.DIAMOND).method == "certified"


def test_diamond_check_reads_the_upper_bound(monkeypatch):
    # A loose certificate fails the check even when the value is right.
    exact = verification.disturbance_estimate

    def loose(channel, kind):
        return dataclasses.replace(exact(channel, kind), certified_gap=1e-3)

    assert verification.check_diamond_equality(points=3).passed
    monkeypatch.setattr(verification, "disturbance_estimate", loose)
    assert not verification.check_diamond_equality(points=3).passed


def test_diamond_ignores_a_positional_strategy():
    # The benchmark's diamond workload still passes a search strategy as
    # the third positional argument; it must not change the result.
    rng = np.random.default_rng(3)
    for channel in (_random_instrument(rng), random_replacement(rng)):
        plain = disturbance_estimate(channel, "diamond")
        given_one = disturbance_estimate(channel, "diamond",
                                         SupremumStrategy(12, 4, 1e-8, 2))
        assert given_one.value == plain.value
        assert given_one.certified_gap == plain.certified_gap
        assert np.array_equal(given_one.params, plain.params)


def test_average_domain_is_keyword_only():
    # A leftover positional strategy must not become the averaging domain.
    spec = random_replacement(np.random.default_rng(4))
    with pytest.raises(TypeError):
        disturbance_estimate(spec, MeasureKind.AVG_TRACE, None, "ball")


@pytest.mark.parametrize("kind", [k for k in MeasureKind
                                  if k is not MeasureKind.DIAMOND])
def test_non_trace_preserving_callable_rejected(kind):
    with pytest.raises(ValueError, match="trace-preserving"):
        disturbance_estimate(lambda rho: 0.9 * rho, kind)
    with pytest.raises(ValueError, match="trace-preserving"):
        disturbance_estimate(lambda rho: rho + 1e-9 * np.eye(2), kind)
