import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bloch_to_density
from qtradeoff.instruments import (
    DiagonalFamilyParams,
    Instrument,
    NotNormalized,
    OptimalFamilyParams,
    ParamOutOfRange,
    instrument_from_descriptor,
    make_diagonal_instrument,
    make_optimal_instrument,
    apply_channel,
    povm_of,
)
from qtradeoff.qmath import ID2, dag
from qtradeoff.states import linear_pol_state, validate_density

PROJ_H = np.diag([1.0, 0.0]).astype(complex)
PROJ_V = np.diag([0.0, 1.0]).astype(complex)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)


def outcome_probabilities(ins, rho):
    # p_j = tr(E'_j rho) for the induced POVM.
    e = povm_of(ins)
    return tuple(float(np.trace(ej @ rho).real) for ej in (e.e1, e.e2))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_diagonal_projective_limit():
    ins = make_diagonal_instrument(DiagonalFamilyParams(0.0, 0.0))
    assert np.allclose(ins.k1, PROJ_H)
    assert np.allclose(ins.k2, PROJ_V)


def test_diagonal_identity_limit():
    b = np.sqrt(0.5)
    ins = make_diagonal_instrument(DiagonalFamilyParams(b, b))
    assert np.allclose(ins.k1, ID2 / np.sqrt(2.0), atol=1e-15)
    assert np.allclose(ins.k2, ID2 / np.sqrt(2.0), atol=1e-15)


def test_optimal_embeds_in_diagonal_family():
    for gamma in (0.0, 0.3, 0.7, 1.0):
        b = np.sqrt(0.5 * (1.0 - gamma))
        diag = make_diagonal_instrument(DiagonalFamilyParams(b, b))
        opt = make_optimal_instrument(OptimalFamilyParams(gamma))
        assert np.allclose(opt.k1, diag.k1, atol=1e-12)
        assert np.allclose(opt.k2, diag.k2, atol=1e-12)


def test_optimal_projective_and_identity_limits():
    proj = make_optimal_instrument(OptimalFamilyParams(1.0))
    assert np.allclose(proj.k1, PROJ_H)
    assert np.allclose(proj.k2, PROJ_V)
    ident = make_optimal_instrument(OptimalFamilyParams(0.0))
    assert np.allclose(ident.k1, ID2 / np.sqrt(2.0))
    assert np.allclose(ident.k2, ID2 / np.sqrt(2.0))


def test_optimal_midpoint_entries():
    ins = make_optimal_instrument(OptimalFamilyParams(0.5))
    s2 = np.sqrt(2.0)
    assert np.allclose(np.diag(ins.k1), [np.sqrt(1.5) / s2, np.sqrt(0.5) / s2])
    assert np.allclose(np.diag(ins.k2), [np.sqrt(0.5) / s2, np.sqrt(1.5) / s2])


def test_param_range_errors():
    with pytest.raises(ParamOutOfRange):
        DiagonalFamilyParams(-0.1, 0.5)
    with pytest.raises(ParamOutOfRange):
        DiagonalFamilyParams(0.5, 1.1)
    with pytest.raises(ParamOutOfRange):
        OptimalFamilyParams(1.5)


@given(unit, unit, angle, angle)
@settings(max_examples=200, deadline=None)
def test_diagonal_family_always_normalized(b1, b2, beta1, beta2):
    ins = make_diagonal_instrument(DiagonalFamilyParams(b1, b2, beta1, beta2))
    total = dag(ins.k1) @ ins.k1 + dag(ins.k2) @ ins.k2
    assert np.allclose(total, ID2, atol=1e-12)


# ---------------------------------------------------------------------------
# povm_of
# ---------------------------------------------------------------------------

def test_povm_projective_and_flat():
    proj = povm_of(make_optimal_instrument(OptimalFamilyParams(1.0)))
    assert np.allclose(proj.e1, PROJ_H)
    assert np.allclose(proj.e2, PROJ_V)
    flat = povm_of(make_optimal_instrument(OptimalFamilyParams(0.0)))
    assert np.allclose(flat.e1, 0.5 * ID2)
    assert np.allclose(flat.e2, 0.5 * ID2)


@given(unit, unit, angle, angle)
@settings(max_examples=100, deadline=None)
def test_diagonal_povm_closed_form(b1, b2, beta1, beta2):
    # E'_j = (1 - b_{jbar}^2)|j><j| + b_j^2 (1 - |j><j|)
    ins = make_diagonal_instrument(DiagonalFamilyParams(b1, b2, beta1, beta2))
    e = povm_of(ins)
    expect1 = (1.0 - b2**2) * PROJ_H + b1**2 * (ID2 - PROJ_H)
    expect2 = (1.0 - b1**2) * PROJ_V + b2**2 * (ID2 - PROJ_V)
    assert np.allclose(e.e1, expect1, atol=1e-12)
    assert np.allclose(e.e2, expect2, atol=1e-12)
    assert np.allclose(e.e1 + e.e2, ID2, atol=1e-12)


def test_labeling_coherence_outcome_one_favors_h():
    for gamma in np.linspace(0.05, 1.0, 12):
        e1 = povm_of(make_optimal_instrument(OptimalFamilyParams(float(gamma)))).e1
        assert np.trace(e1 @ PROJ_H).real > 0.5


# ---------------------------------------------------------------------------
# apply_channel and outcome probabilities
# ---------------------------------------------------------------------------

def test_identity_instrument_preserves_states():
    ins = make_optimal_instrument(OptimalFamilyParams(0.0))
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(3)
        v /= max(np.linalg.norm(v), 1.0)
        rho = bloch_to_density(v)
        assert np.allclose(apply_channel(ins, rho), rho, atol=1e-12)


def test_projective_instrument_dephases_equator():
    ins = make_optimal_instrument(OptimalFamilyParams(1.0))
    rho = bloch_to_density([1.0, 0.0, 0.0])
    assert np.allclose(apply_channel(ins, rho), 0.5 * ID2, atol=1e-12)


def test_diagonal_instrument_fixes_h():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        assert np.allclose(apply_channel(ins, PROJ_H), PROJ_H, atol=1e-12)


def test_channel_output_is_valid_state():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = DiagonalFamilyParams(*rng.uniform(0, 1, 2), *rng.uniform(0, 2 * np.pi, 2))
        ins = make_diagonal_instrument(p)
        v = rng.standard_normal(3)
        v /= max(np.linalg.norm(v), 1.0)
        out = apply_channel(ins, bloch_to_density(v))
        validate_density(out, tol=1e-9)


def test_outcome_probabilities_examples():
    proj = make_optimal_instrument(OptimalFamilyParams(1.0))
    assert outcome_probabilities(proj, linear_pol_state(0.0)) == pytest.approx((1.0, 0.0))
    flat = make_optimal_instrument(OptimalFamilyParams(0.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(3)
        v /= max(np.linalg.norm(v), 1.0)
        assert outcome_probabilities(flat, bloch_to_density(v)) == pytest.approx((0.5, 0.5))
    half = make_optimal_instrument(OptimalFamilyParams(0.5))
    assert outcome_probabilities(half, linear_pol_state(0.0)) == pytest.approx((0.75, 0.25))


@given(unit, angle)
@settings(max_examples=60, deadline=None)
def test_probabilities_normalized_and_nonnegative(gamma, beta):
    ins = make_optimal_instrument(OptimalFamilyParams(gamma, beta))
    rng = np.random.default_rng(int(gamma * 1e6) + 1)
    v = rng.standard_normal(3)
    v /= max(np.linalg.norm(v), 1.0)
    p1, p2 = outcome_probabilities(ins, bloch_to_density(v))
    assert p1 + p2 == pytest.approx(1.0, abs=1e-10)
    assert p1 >= -1e-10 and p2 >= -1e-10


# ---------------------------------------------------------------------------
# validating an arbitrary Kraus pair
# ---------------------------------------------------------------------------

def test_validate_instrument_accepts_valid_pairs():
    Instrument(ID2 / np.sqrt(2.0), ID2 / np.sqrt(2.0))
    Instrument(PROJ_H, PROJ_V)


def test_validate_instrument_rejects_unnormalized():
    with pytest.raises(NotNormalized) as err:
        Instrument(ID2, ID2)
    assert "exceeds" in str(err.value)


def test_instrument_arrays_are_readonly():
    ins = make_optimal_instrument(OptimalFamilyParams(0.4))
    with pytest.raises(ValueError):
        ins.k1[0, 0] = 0.0


# ---------------------------------------------------------------------------
# JSON descriptor interface
# ---------------------------------------------------------------------------

def test_descriptor_optimal():
    ins = instrument_from_descriptor({"family": "optimal", "gamma": 0.5, "beta": 0.0})
    assert np.allclose(ins.k1, make_optimal_instrument(OptimalFamilyParams(0.5)).k1)


def test_descriptor_diagonal():
    ins = instrument_from_descriptor(
        {"family": "diagonal", "b1": 0.5, "b2": 0.5, "beta1": 0.0, "beta2": 0.0})
    ref = make_diagonal_instrument(DiagonalFamilyParams(0.5, 0.5))
    assert np.allclose(ins.k1, ref.k1)


def test_descriptor_raw_round_trip():
    ins = make_optimal_instrument(OptimalFamilyParams(0.3, 0.2))
    desc = {
        "family": "raw",
        "k1": [[[c.real, c.imag] for c in row] for row in ins.k1],
        "k2": [[[c.real, c.imag] for c in row] for row in ins.k2],
    }
    back = instrument_from_descriptor(desc)
    assert np.allclose(back.k1, ins.k1)
    assert np.allclose(back.k2, ins.k2)


def test_descriptor_errors_name_fields():
    with pytest.raises(ValueError, match="instrument.family"):
        instrument_from_descriptor({"family": "bogus"})
    with pytest.raises(ValueError, match="instrument.gamma"):
        instrument_from_descriptor({"family": "optimal", "gamma": 2.0})
    with pytest.raises(ValueError, match="instrument.gamma"):
        instrument_from_descriptor({"family": "optimal"})
    with pytest.raises(ValueError, match="instrument.k1"):
        instrument_from_descriptor({"family": "raw", "k1": [[1, 2], [3, 4]], "k2": []})
    with pytest.raises(NotNormalized):
        instrument_from_descriptor({
            "family": "raw",
            "k1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "k2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        })


def test_normalization_check_rejects_overflow():
    # K1^dag K1 overflows to inf + nan j, so the deviation is NaN.
    with pytest.raises(NotNormalized):
        Instrument(np.diag([1e300, 0.0]), np.diag([0.0, 1.0]))


@pytest.mark.parametrize("family, name", [
    ("optimal", "gamma"), ("optimal", "beta"), ("diagonal", "b1"),
    ("diagonal", "b2"), ("diagonal", "beta1"), ("diagonal", "beta2"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   10**400], ids=["nan", "inf", "-inf", "1e400"])
def test_descriptor_rejects_unusable_numbers(family, name, value):
    # Only the family's own fields: any other is rejected as unknown.
    base = {"optimal": {"gamma": 0.5}, "diagonal": {"b1": 0.5, "b2": 0.5}}[family]
    desc = {"family": family, **base, name: value}
    with pytest.raises(ValueError, match=rf"^instrument\.{name}: "):
        instrument_from_descriptor(desc)


@pytest.mark.parametrize("desc, name", [
    ({"family": "optimal", "gamma": 0.5, "gama": 0.1}, "gama"),
    ({"family": "optimal", "gamma": 0.5, "b1": 0.5}, "b1"),
    ({"family": "diagonal", "b1": 0.5, "beta": 0.2, "b2": 0.5, "k1": 0}, "beta"),
    ({"family": "raw", "k1": [], "k2": [], "gamma": 0.5}, "gamma"),
    ({"beta1": 0.0, "family": "optimal", "gamma": 0.5}, "beta1"),
])
def test_descriptor_rejects_the_first_unknown_field(desc, name):
    # A misspelt or foreign field would otherwise be ignored and its
    # default used in its place.
    with pytest.raises(ValueError, match=rf"^instrument\.{name}: unknown field$"):
        instrument_from_descriptor(desc)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), 10**400, "0.7071067811865476", False, None,
], ids=["nan", "inf", "1e400", "string", "bool", "null"])
def test_descriptor_rejects_unusable_matrix_entries(value):
    # Each entry is a JSON number or rejected by its index; a string or a
    # boolean is never coerced.
    k1 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    k2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [value, 0.0]]]
    with pytest.raises(ValueError,
                       match=r"^instrument\.k2: entry \[1\]\[1\]\[0\]: "):
        instrument_from_descriptor({"family": "raw", "k1": k1, "k2": k2})
