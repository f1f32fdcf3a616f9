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
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import elliprg

from oracles import (
    bloch_to_density, maximize_over_bipartite_pure_states,
    maximize_over_pure_states)
from qtradeoff import measures, verification
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
    _carlson_rg,
    _dual_bound,
    _worst_trace,
    disturbance_estimate,
    measurement_error_estimate,
)
from qtradeoff.qmath import SIGMA_X, SIGMA_Y, SIGMA_Z, dag
from qtradeoff.schemes import (
    ClonerParams,
    MarginalChannelSpec,
    SwapParams,
    cloner_system_channel_spec,
    swap_system_channel_spec,
)
from qtradeoff.supopt import SupremumStrategy
from qtradeoff.verification import (
    _random_instrument, _random_povm, _random_unitary)

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
    # the reported argmax, a Bloch vector, attains the value
    assert f(bloch_to_density(est.params)) == pytest.approx(est.value,
                                                            abs=1e-12)
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
    assert np.allclose(bloch_to_density(est.params), np.diag([0.0, 1.0]),
                       atol=1e-12)


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

def loop_average(apply2):
    # Reference: the same Gauss-Legendre x trapezoid rule, one state at a
    # time, with the trace distance from numpy's eigenvalues.
    x, w = np.polynomial.legendre.leggauss(48)
    thetas = 0.5 * np.pi * (x + 1.0)
    phis = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
    total = 0.0
    for th, wt in zip(thetas, 0.25 * np.pi * w * np.sin(thetas)):
        for ph in phis:
            rho = 0.5 * (np.eye(2) + np.sin(th) * np.cos(ph) * SIGMA_X
                         + np.sin(th) * np.sin(ph) * SIGMA_Y
                         + np.cos(th) * SIGMA_Z)
            diff = apply2(rho) - rho
            total += wt * 0.5 * np.sum(
                np.abs(np.linalg.eigvalsh(diff))) / len(phis)
    return total


@pytest.mark.parametrize("seed", [0, 1])
def test_averaged_quadrature_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    spec = random_replacement(rng)
    apply2 = random_mixture(rng)
    for channel, f in ((spec, spec.apply), (apply2, apply2)):
        est = disturbance_estimate(channel, MeasureKind.AVG_TRACE)
        assert est.method == "quadrature"
        assert est.value == pytest.approx(loop_average(f), abs=1e-13)


# ---------------------------------------------------------------------------
# averaged kind: Carlson's R_G for unital channels
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


@pytest.mark.parametrize("x", [1e-300, 1e-8, 0.3, 1.0, 4.0, 1e6, 1e300])
def test_carlson_rg_closed_forms(x):
    # R_G(x, x, x) = sqrt(x); R_G(0, x, x) = (pi/4) sqrt(x), the mean of
    # sqrt(x) sin(theta); R_G(0, 0, x) = sqrt(x)/2, the mean of sqrt(x) |Z|,
    # where R_F is infinite and the duplication would never stop.  Each is
    # one or two roundings of the exact value.
    assert _carlson_rg(x, x, x) == pytest.approx(math.sqrt(x), rel=2 * EPS)
    for args in set(itertools.permutations((0.0, x, x))):
        assert _carlson_rg(*args) == pytest.approx(
            0.25 * math.pi * math.sqrt(x), rel=2 * EPS)
    for args in set(itertools.permutations((0.0, 0.0, x))):
        assert _carlson_rg(*args) == pytest.approx(
            0.5 * math.sqrt(x), rel=2 * EPS)
    assert _carlson_rg(0.0, 0.0, 0.0) == 0.0


def test_carlson_rg_thin_ellipsoid_stays_above_half():
    # Semi-axes 1, 1e-3, 1e-3: R_G >= R_G(1, 0, 0) = 1/2, which the
    # 48 x 96 quadrature rule broke.
    value = _carlson_rg(1.0, 1e-6, 1e-6)
    assert value >= 0.5
    assert value == pytest.approx(elliprg(1.0, 1e-6, 1e-6), rel=1e-14)


rg_args = st.one_of(st.just(0.0),
                    st.floats(min_value=1e-100, max_value=1e100))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rg_args, rg_args, rg_args, st.floats(min_value=1e-50, max_value=1e50))
def test_carlson_rg_properties(x, y, z, k):
    """Symmetry, homogeneity of degree 1/2, the bounds sqrt(max)/2 <= R_G
    <= sqrt(max), and scipy's independent R_G.

    The arguments are sorted before anything else, so every order gives
    the same bits.  Each value carries the rounding of up to 12 duplication
    steps and of two short series, a few eps (scipy's elliprg agrees to
    10 eps over 20,000 random arguments); k x, k y, k z add one rounding
    each.  rel 1e-14, about 45 eps, covers that with room.  The bounds
    hold exactly for the true R_G and may be missed by that rounding.
    """
    value = _carlson_rg(x, y, z)
    for args in itertools.permutations((x, y, z)):
        assert _carlson_rg(*args) == value
    assert _carlson_rg(k * x, k * y, k * z) == pytest.approx(
        math.sqrt(k) * value, rel=1e-14)
    top = math.sqrt(max(x, y, z))
    assert 0.5 * top * (1.0 - 1e-14) <= value <= top * (1.0 + 1e-14)
    assert value == pytest.approx(elliprg(x, y, z), rel=1e-14)


def test_x_dephasing_average_is_pi_over_8():
    # Kraus |+><+| and |-><-|: M = diag(1, 0, 0), so |(M - 1) r| is
    # |sin theta| about the x axis, whose surface mean is pi/4.  The
    # closed form lands within two ulps; the 48 x 96 rule, whose poles sit
    # on z, read 0.39270276200149123, 3.7e-6 high.
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    est = disturbance_estimate(Instrument(plus, minus), MeasureKind.AVG_TRACE)
    assert est.method == "exact" and est.certified_gap == 0.0
    assert abs(est.value - np.pi / 8.0) <= 2.0 * np.spacing(np.pi / 8.0)


PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def pole_aligned_average(a, n):
    """(1/2) the surface mean of |A r|: n-point Gauss-Legendre in theta
    (sin theta weight) times a 2n-point trapezoid in phi, the weights
    normalised to sum to 1, with the pole on A's least right singular
    vector.  |A r| is near its kink there, where Gauss-Legendre clusters
    its nodes; elsewhere it is analytic on the sphere."""
    _, _, vt = np.linalg.svd(a)
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * np.pi * (x + 1.0)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
    st_, ct = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    # A r for r = sin cos v0 + sin sin v1 + cos v2, one (3,) per node.
    av = a @ vt.T
    images = (st_ * np.cos(phi)[None, :, None] * av[:, 0]
              + st_ * np.sin(phi)[None, :, None] * av[:, 1] + ct * av[:, 2])
    weights = w * np.sin(theta)
    return 0.5 * float(weights @ np.linalg.norm(images, axis=2).mean(axis=1)
                       / weights.sum())


@PROPERTY
@given(seeds)
def test_random_unital_average_matches_pole_aligned_reference(seed):
    """R_G against an independent high-order integral of |A r|, A read
    from the channel's Pauli transfer matrix tr(sigma_i T(sigma_j)) / 2.

    The reference converges geometrically in n, so its error at n = 400 is
    far below its change from n = 200, which bounds it.  The remainder is
    rounding: a few eps in each |A r| and in two pairwise-summed weighted
    sums; 8 eps covers it.
    """
    apply2 = random_unital(np.random.default_rng(seed))
    a = np.array([[0.5 * np.trace(si @ apply2(sj)).real for sj in PAULIS]
                  for si in PAULIS]) - np.eye(3)
    est = disturbance_estimate(apply2, MeasureKind.AVG_TRACE)
    assert est.method == "exact" and est.params.size == 0
    coarse, fine = pole_aligned_average(a, 200), pole_aligned_average(a, 400)
    assert abs(est.value - fine) <= abs(fine - coarse) + 8.0 * EPS


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
    return sum(np.kron(channel(e) - e, e)
               for e in np.eye(4, dtype=complex).reshape(4, 2, 2))


def reference_diamond(channel):
    """The diamond solve as it was with scipy's BFGS: the same objective,
    starts, floor and dual bound, J built from Kronecker products and the
    bound taken one shrink at a time.  Returns (value, upper)."""
    j = reference_choi(channel)
    r_worst, worst = _worst_trace(*_bloch_affine(channel))

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


def objective_calls(monkeypatch):
    # The number of rows of every _diamond_objective call, in order.
    calls = []
    objective = measures._diamond_objective

    def spy(c, j):
        calls.append(len(c))
        return objective(c, j)

    monkeypatch.setattr(measures, "_diamond_objective", spy)
    return calls


@pytest.mark.parametrize("channel", [
    make_optimal_instrument(OptimalFamilyParams(0.0)),
    make_optimal_instrument(OptimalFamilyParams(0.37)),
    make_optimal_instrument(OptimalFamilyParams(1.0)),
    cloner_system_channel_spec(ClonerParams.from_a2(0.2)),
    cloner_system_channel_spec(ClonerParams.from_a2(0.8)),
    swap_system_channel_spec(SwapParams(0.3)),
    swap_system_channel_spec(SwapParams(1.2)),
], ids=["optimal-0", "optimal-0.37", "optimal-1", "cloner-0.2",
        "cloner-0.8", "swap-0.3", "swap-1.2"])
def test_stationary_starts_cost_one_stacked_evaluation(monkeypatch, channel):
    # On the benchmark's channels both starts are already stationary: one
    # evaluation of the two stacked starts and no BFGS iteration.
    calls = objective_calls(monkeypatch)
    disturbance_estimate(channel, MeasureKind.DIAMOND)
    assert calls == [2]


def test_iterating_start_takes_single_rows(monkeypatch):
    # A start that is not stationary iterates on one row at a time, and
    # the solve still matches the scipy reference.
    calls = objective_calls(monkeypatch)
    channel = _random_instrument(np.random.default_rng(0))
    check_against_reference(channel)
    assert calls[0] == 2 and len(calls) > 1 and set(calls[1:]) == {1}


# ---------------------------------------------------------------------------
# methods and input checks
# ---------------------------------------------------------------------------

def test_methods_are_reported():
    # t = 0 takes the closed-form average, t != 0 the quadrature rule.
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    avg = disturbance_estimate(ins, MeasureKind.AVG_TRACE)
    assert avg.method == "exact" and avg.params.size == 0
    spec = MarginalChannelSpec(0.5, bloch_to_density([0.0, 0.0, 1.0]))
    avg = disturbance_estimate(spec, MeasureKind.AVG_TRACE)
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


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_non_trace_preserving_callable_rejected(kind):
    with pytest.raises(ValueError, match="trace-preserving"):
        disturbance_estimate(lambda rho: 0.9 * rho, kind)
    with pytest.raises(ValueError, match="trace-preserving"):
        disturbance_estimate(lambda rho: rho + 1e-9 * np.eye(2), kind)


# Linear maps whose images are not 2x2 matrices: the shape each returns.
NOT_2X2 = {
    (2, 2, 1): lambda rho: np.asarray(rho)[..., None],
    (1, 2, 2): lambda rho: np.asarray(rho)[None],
    (3, 3): lambda rho: np.trace(rho) * np.eye(3) / 3.0,
    (4,): lambda rho: np.asarray(rho).ravel(),
    (): lambda rho: np.trace(rho),
}


@pytest.mark.parametrize("kind", list(MeasureKind))
@pytest.mark.parametrize("shape", list(NOT_2X2), ids=str)
def test_non_2x2_image_rejected_naming_its_shape(kind, shape):
    with pytest.raises(ValueError, match=re.escape(f"of shape {shape}")):
        disturbance_estimate(NOT_2X2[shape], kind)


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_nested_list_image_accepted(kind):
    as_list = disturbance_estimate(lambda rho: np.asarray(rho).tolist(), kind)
    as_array = disturbance_estimate(lambda rho: np.asarray(rho), kind)
    assert as_list.value == as_array.value


def transfer_matrix(kraus):
    # R_mn = (1/2) sum_j tr(sigma_m K_j sigma_n K_j^dag), sigma_0 = 1: the
    # Pauli transfer matrix [[1, 0], [t, M]], from the Kraus operators alone.
    paulis = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
    return np.array([[0.5 * sum(np.trace(sm @ k @ sn @ dag(k)) for k in kraus)
                      for sn in paulis] for sm in paulis]).real


def replacement_kraus(spec):
    # sqrt(1 - w) 1 and sqrt(w p_a) |a><i| for the eigenpairs (p_a, |a>) of
    # the replacement state.
    p, vecs = np.linalg.eigh(spec.replacement)
    return [math.sqrt(1.0 - spec.weight) * np.eye(2)] + [
        math.sqrt(spec.weight * max(p_a, 0.0)) * np.outer(a, e_i)
        for p_a, a in zip(p, vecs.T) for e_i in np.eye(2)]


def amplitude_damping_kraus(g):
    return [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]]),
            np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])]


def kraus_channel(kraus):
    return lambda rho: sum(k @ rho @ dag(k) for k in kraus)


CHANNELS_WITH_KRAUS = [
    *((ins, [ins.k1, ins.k2]) for ins in (
        _random_instrument(np.random.default_rng(seed)) for seed in range(5))),
    *((spec, replacement_kraus(spec)) for spec in (
        cloner_system_channel_spec(ClonerParams.from_a2(0.4)),
        MarginalChannelSpec(0.35, bloch_to_density([0.3, -0.5, 0.6])))),
    *((kraus_channel(k), k) for k in (
        amplitude_damping_kraus(0.3), amplitude_damping_kraus(1.0))),
]


@pytest.mark.parametrize("channel, kraus", CHANNELS_WITH_KRAUS)
def test_bloch_affine_matches_kraus_transfer_matrix(channel, kraus):
    # Both sides are sums of a few products of entries of size at most 1,
    # so they agree to rounding; 1e-14 leaves about 50 ulps of room.
    r = transfer_matrix(kraus)
    np.testing.assert_allclose(r[0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    m, t = _bloch_affine(channel)
    np.testing.assert_allclose(t, r[1:, 0], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(m, r[1:, 1:], rtol=0.0, atol=1e-14)
