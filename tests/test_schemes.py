import numpy as np
import pytest

from oracles import bloch_to_density
from qtradeoff.instruments import (
    DiagonalFamilyParams,
    Instrument,
    OptimalFamilyParams,
    Povm,
    make_diagonal_instrument,
    make_optimal_instrument,
    povm_of,
)
from qtradeoff.measures import (
    TARGET_POVM,
    MeasureKind,
    disturbance,
    measurement_error,
)
from qtradeoff.qmath import ID2
from qtradeoff.schemes import (
    ClonerParams,
    MarginalChannelSpec,
    SwapParams,
    cloner_induced_povm,
    cloner_system_channel_spec,
    cloner_tradeoff_curve,
    cloner_tradeoff_point,
    diagonal_tradeoff_point,
    optimal_frontier,
    optimal_tradeoff_point,
    scheme_point,
    swap_induced_povm,
    swap_system_channel_spec,
    swap_tradeoff_curve,
    swap_tradeoff_point,
)
from qtradeoff.states import linear_pol_state

PROJ_H = np.diag([1.0, 0.0]).astype(complex)
# |j i><i j| summed: FLIP kron(a, b) FLIP == kron(b, a).
FLIP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


# ---------------------------------------------------------------------------
# the two-qubit channels, which the package replaces by their marginals
# ---------------------------------------------------------------------------

def cloner_channel(p, rho):
    """Two-qubit output (a2 1 + a1 F)(rho (x) 1/2)(a2 1 + a1 F)."""
    w = p.a2 * np.eye(4) + p.a1 * FLIP
    return w @ np.kron(rho, 0.5 * ID2) @ w


def swap_channel(p, rho, ancilla=0.5 * ID2):
    """Two-qubit output exp(i t F)(rho (x) anc) exp(-i t F)."""
    w = p.a2 * np.eye(4) + 1j * p.a1 * FLIP
    return w @ np.kron(rho, ancilla) @ w.conj().T


def marginals(out):
    """(kept system, measured output): the second, then the first qubit
    traced out of a two-qubit operator."""
    r = out.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r), np.einsum("kikj->ij", r)


def cloner_marginals(p, rho):
    """The package's replacement forms of the kept system and the clone."""
    return (cloner_system_channel_spec(p).apply(rho),
            MarginalChannelSpec(p.a2**2, 0.5 * ID2).apply(rho))


def swap_marginals(p, rho, ancilla=0.5 * ID2):
    return marginals(swap_channel(p, rho, ancilla))


def dual_povm(apply):
    """The target measurement after the linear map ``apply``, read off the
    matrix units: E'_j[m, n] = tr(E_j T(|n><m|))."""
    units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # |n><m|
    return Povm(*(np.array([[np.trace(e @ apply(units[n, m]))
                             for n in range(2)] for m in range(2)])
                  for e in (TARGET_POVM.e1, TARGET_POVM.e2)))


def random_state(rng):
    v = rng.standard_normal(3)
    v /= max(np.linalg.norm(v), 1.0)
    return bloch_to_density(v)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_cloner_params_from_a2():
    p = ClonerParams.from_a2(1.0)
    assert p.a1 == pytest.approx(0.0, abs=1e-12)
    p = ClonerParams.from_a2(0.0)
    assert p.a1 == pytest.approx(1.0)
    p = ClonerParams.from_a2(1.0 / np.sqrt(3.0))
    assert p.a1 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_cloner_params_constraint_enforced():
    with pytest.raises(ValueError):
        ClonerParams(1.0, 1.0)
    with pytest.raises(ValueError):
        ClonerParams.from_a2(1.5)


def test_swap_params_range_and_amplitudes():
    p = SwapParams(np.pi / 4.0)
    assert p.a1 == pytest.approx(np.sqrt(0.5))
    assert p.a2 == pytest.approx(np.sqrt(0.5))
    assert p.a1**2 + p.a2**2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SwapParams(-0.1)
    with pytest.raises(ValueError):
        SwapParams(2.0)


def test_marginal_channel_spec_validation():
    with pytest.raises(ValueError):
        MarginalChannelSpec(1.5, 0.5 * ID2)
    with pytest.raises(ValueError):
        MarginalChannelSpec(0.5, np.diag([1.0, 1.0]))


# ---------------------------------------------------------------------------
# cloner
# ---------------------------------------------------------------------------

def test_cloner_channel_no_interaction():
    rng = np.random.default_rng(0)
    rho = random_state(rng)
    out = cloner_channel(ClonerParams.from_a2(1.0), rho)
    assert np.allclose(out, np.kron(rho, 0.5 * ID2), atol=1e-12)


def test_cloner_channel_full_flip():
    rng = np.random.default_rng(1)
    rho = random_state(rng)
    out = cloner_channel(ClonerParams(1.0, 0.0), rho)
    assert np.allclose(out, np.kron(0.5 * ID2, rho), atol=1e-12)


def test_cloner_channel_trace_and_positivity():
    rng = np.random.default_rng(2)
    for a2 in (0.0, 0.3, 1.0 / np.sqrt(3.0), 0.9, 1.0):
        p = ClonerParams.from_a2(a2)
        for _ in range(5):
            out = cloner_channel(p, random_state(rng))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_cloner_marginals_closed_form_and_partial_traces():
    rng = np.random.default_rng(3)
    for a2 in (0.1, 0.5, 0.8):
        p = ClonerParams.from_a2(a2)
        for _ in range(5):
            rho = random_state(rng)
            t_s, t_sp = cloner_marginals(p, rho)
            assert np.allclose(t_s, p.a1**2 * 0.5 * ID2 + (1 - p.a1**2) * rho, atol=1e-12)
            assert np.allclose(t_sp, p.a2**2 * 0.5 * ID2 + (1 - p.a2**2) * rho, atol=1e-12)
            out_s, out_sp = marginals(cloner_channel(p, rho))
            assert np.allclose(t_s, out_s, atol=1e-10)
            assert np.allclose(t_sp, out_sp, atol=1e-10)


def test_cloner_marginal_boundary_identities():
    rng = np.random.default_rng(4)
    rho = random_state(rng)
    t_s, _ = cloner_marginals(ClonerParams.from_a2(1.0), rho)
    assert np.allclose(t_s, rho, atol=1e-12)
    _, t_sp = cloner_marginals(ClonerParams(1.0, 0.0), rho)
    assert np.allclose(t_sp, rho, atol=1e-12)


def test_cloner_symmetric_point():
    a = 1.0 / np.sqrt(3.0)
    p = ClonerParams(a, a)
    rho = linear_pol_state(0.0)
    t_s, t_sp = cloner_marginals(p, rho)
    expected = (1.0 / 3.0) * 0.5 * ID2 + (2.0 / 3.0) * rho
    assert np.allclose(t_s, expected, atol=1e-12)
    assert np.allclose(t_sp, expected, atol=1e-12)


def test_cloner_tradeoff_point_and_curve():
    pt = cloner_tradeoff_point(ClonerParams.from_a2(1.0))
    assert (pt.delta, pt.Delta) == (pytest.approx(0.5), pytest.approx(0.0, abs=1e-12))
    pt = cloner_tradeoff_point(ClonerParams(1.0, 0.0))
    assert (pt.delta, pt.Delta) == (pytest.approx(0.0), pytest.approx(0.5))
    # spot value at delta = 0.25
    assert cloner_tradeoff_curve(0.25) == pytest.approx(
        0.25 * (np.sqrt(1.25) - 0.5) ** 2, abs=1e-15)
    assert cloner_tradeoff_curve(0.25) == pytest.approx(0.0954915028, abs=1e-9)


def test_cloner_curve_identity_on_parameter_sweep():
    for a2 in np.linspace(0.0, 1.0, 101):
        pt = cloner_tradeoff_point(ClonerParams.from_a2(float(a2)))
        assert pt.Delta == pytest.approx(cloner_tradeoff_curve(pt.delta), abs=1e-10)


def test_cloner_numeric_supremum_cross_check():
    for a2 in (0.2, 0.7):
        p = ClonerParams.from_a2(a2)
        pt = cloner_tradeoff_point(p)
        d_num = measurement_error(cloner_induced_povm(p))
        dd_num = disturbance(cloner_system_channel_spec(p), MeasureKind.WORST_TRACE)
        assert d_num == pytest.approx(pt.delta, abs=1e-6)
        assert dd_num == pytest.approx(pt.Delta, abs=1e-6)


def test_cloner_induced_povm_via_duality():
    # tr(E' rho) must equal tr(E T_s'(rho)) for random states
    rng = np.random.default_rng(5)
    p = ClonerParams.from_a2(0.6)
    povm = cloner_induced_povm(p)
    for _ in range(10):
        rho = random_state(rng)
        _, t_sp = cloner_marginals(p, rho)
        assert np.trace(povm.e1 @ rho).real == pytest.approx(
            np.trace(PROJ_H @ t_sp).real, abs=1e-12)


# ---------------------------------------------------------------------------
# swap
# ---------------------------------------------------------------------------

def test_swap_no_and_full_swap():
    rng = np.random.default_rng(6)
    rho = random_state(rng)
    anc = random_state(rng)
    t_s, t_sp = swap_marginals(SwapParams(0.0), rho, anc)
    assert np.allclose(t_s, rho, atol=1e-12)
    assert np.allclose(t_sp, anc, atol=1e-12)
    t_s, t_sp = swap_marginals(SwapParams(np.pi / 2.0), rho, anc)
    assert np.allclose(t_s, anc, atol=1e-12)
    assert np.allclose(t_sp, rho, atol=1e-12)


def test_swap_half_on_h():
    t_s, _ = swap_marginals(SwapParams(np.pi / 4.0), linear_pol_state(0.0))
    expected = 0.25 * ID2 + 0.5 * linear_pol_state(0.0)
    assert np.allclose(t_s, expected, atol=1e-12)


def test_swap_marginals_affine_form_for_mixed_ancilla():
    rng = np.random.default_rng(7)
    for t in (0.2, 0.9):
        p = SwapParams(t)
        for _ in range(5):
            rho = random_state(rng)
            t_s, t_sp = swap_marginals(p, rho)
            assert np.allclose(t_s, p.a1**2 * 0.5 * ID2 + (1 - p.a1**2) * rho, atol=1e-10)
            assert np.allclose(t_sp, (1 - p.a1**2) * 0.5 * ID2 + p.a1**2 * rho, atol=1e-10)


def test_swap_channel_is_unitary_conjugation():
    rng = np.random.default_rng(8)
    p = SwapParams(0.7)
    rho, anc = random_state(rng), random_state(rng)
    out = swap_channel(p, rho, anc)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    inp = np.kron(rho, anc)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)),
                       np.sort(np.linalg.eigvalsh(inp)), atol=1e-10)


def test_swap_tradeoff_points():
    pt = swap_tradeoff_point(SwapParams(0.0))
    assert (pt.delta, pt.Delta) == (pytest.approx(0.5), pytest.approx(0.0))
    pt = swap_tradeoff_point(SwapParams(np.pi / 2.0))
    assert (pt.delta, pt.Delta) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.5))
    pt = swap_tradeoff_point(SwapParams(np.pi / 4.0))
    assert (pt.delta, pt.Delta) == (pytest.approx(0.25), pytest.approx(0.25))
    for t in np.linspace(0.0, np.pi / 2.0, 31):
        pt = swap_tradeoff_point(SwapParams(float(t)))
        assert pt.delta + pt.Delta == pytest.approx(0.5, abs=1e-15)


def test_swap_numeric_supremum_cross_check():
    p = SwapParams(0.6)
    pt = swap_tradeoff_point(p)
    d_num = measurement_error(swap_induced_povm(p))
    dd_num = disturbance(swap_system_channel_spec(p), MeasureKind.WORST_TRACE)
    assert d_num == pytest.approx(pt.delta, abs=1e-6)
    assert dd_num == pytest.approx(pt.Delta, abs=1e-6)


def test_swap_pure_ancilla_same_error_more_disturbance():
    # Demo sweep: a pure ancilla with the same diagonal entries as the
    # maximally mixed one reproduces the outcome statistics on every
    # linearly polarized (real-coherence) state, never lowers the
    # worst-case error, and strictly increases the disturbance.
    p = SwapParams(0.5)
    pure_anc = bloch_to_density([1.0, 0.0, 0.0])  # diagonal entries 1/2

    def apply_sp(x):
        return swap_marginals(p, x, pure_anc)[1]

    povm_pure = dual_povm(apply_sp)
    povm_mixed = swap_induced_povm(p)
    for theta in np.linspace(0.0, 360.0, 37):
        rho = linear_pol_state(theta)
        for e_pure, e_mixed in ((povm_pure.e1, povm_mixed.e1),
                                (povm_pure.e2, povm_mixed.e2)):
            assert np.trace(e_pure @ rho).real == pytest.approx(
                np.trace(e_mixed @ rho).real, abs=1e-12)
    assert measurement_error(povm_pure) >= \
        measurement_error(povm_mixed) - 1e-12

    def apply_s(rho):
        return swap_marginals(p, rho, pure_anc)[0]

    dist_pure = disturbance(apply_s, MeasureKind.WORST_TRACE)
    dist_mixed = swap_tradeoff_point(p).Delta
    assert dist_pure > dist_mixed + 1e-3


# ---------------------------------------------------------------------------
# optimal and diagonal families
# ---------------------------------------------------------------------------

def test_diagonal_error_closed_form_on_symmetric_locus():
    for b in (0.0, 0.3, np.sqrt(0.5), 0.9):
        p = DiagonalFamilyParams(b, b)
        closed = diagonal_tradeoff_point(p).delta
        numeric = measurement_error(povm_of(make_diagonal_instrument(p)))
        assert closed == pytest.approx(b * b, abs=1e-15)
        assert numeric == pytest.approx(closed, abs=1e-8)


def test_diagonal_disturbance_closed_form_examples():
    b = np.sqrt(0.5)
    assert diagonal_tradeoff_point(DiagonalFamilyParams(b, b)).Delta == pytest.approx(0.0, abs=1e-15)
    assert diagonal_tradeoff_point(DiagonalFamilyParams(0.0, 0.0)).Delta == pytest.approx(0.5)
    val = diagonal_tradeoff_point(DiagonalFamilyParams(0.5, 0.5)).Delta
    assert val == pytest.approx(0.5 * (1.0 - np.sqrt(3.0) / 2.0), abs=1e-12)
    assert val == pytest.approx(optimal_frontier(0.25), abs=1e-12)
    assert val == pytest.approx(0.5 * (np.sqrt(0.75) - 0.5) ** 2, abs=1e-12)


def test_optimal_tradeoff_point_matches_exact_measures():
    rng = np.random.default_rng(2)
    for gamma, beta in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0),
                        *rng.uniform((0.0, -np.pi), (1.0, np.pi), (50, 2))]:
        p = OptimalFamilyParams(float(gamma), float(beta))
        ins = make_optimal_instrument(p)
        pt = optimal_tradeoff_point(p)
        assert pt.delta == pytest.approx(measurement_error(povm_of(ins)), abs=1e-12)
        assert pt.Delta == pytest.approx(
            disturbance(ins, MeasureKind.WORST_TRACE), abs=1e-12)
        if beta == 0.0:
            assert pt.Delta == pytest.approx(optimal_frontier(pt.delta), abs=1e-12)


@pytest.mark.parametrize("scheme, value, point", [
    ("optimal", 0.5, lambda v: optimal_tradeoff_point(OptimalFamilyParams(v))),
    ("diagonal", 0.3, lambda v: diagonal_tradeoff_point(DiagonalFamilyParams(v, v))),
    ("cloner", 0.6, lambda v: cloner_tradeoff_point(ClonerParams.from_a2(v))),
    ("swap", 0.7, lambda v: swap_tradeoff_point(SwapParams(v))),
], ids=["optimal", "diagonal", "cloner", "swap"])
def test_scheme_point_pairs_the_closed_form_with_its_measures(scheme, value, point):
    povm, channel, pt = scheme_point(scheme, value)
    assert isinstance(povm, Povm)
    assert isinstance(channel, (Instrument, MarginalChannelSpec))
    assert pt == point(value)
    assert measurement_error(povm) == pytest.approx(pt.delta, abs=1e-12)
    assert disturbance(channel) == pytest.approx(pt.Delta, abs=1e-12)


def test_scheme_point_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme 'clone'"):
        scheme_point("clone", 0.5)


# ---------------------------------------------------------------------------
# frontier and dominance
# ---------------------------------------------------------------------------

def test_frontier_boundaries_and_quarter():
    assert optimal_frontier(0.0) == pytest.approx(0.5)
    assert optimal_frontier(0.5) == pytest.approx(0.0)
    assert optimal_frontier(0.75) == 0.0
    assert optimal_frontier(0.25) == pytest.approx(
        0.5 * (np.sqrt(0.75) - 0.5) ** 2, abs=1e-15)
    assert optimal_frontier(0.25) == pytest.approx(0.0669872981, abs=1e-9)
    with pytest.raises(ValueError):
        optimal_frontier(-0.1)
    with pytest.raises(ValueError):
        optimal_frontier(1.1)


def test_strict_dominance_over_open_interval():
    for delta in np.linspace(0.0, 0.5, 101)[1:-1]:
        d = float(delta)
        assert optimal_frontier(d) < cloner_tradeoff_curve(d) < swap_tradeoff_curve(d)
