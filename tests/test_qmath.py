import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtradeoff.qmath import (
    FLIP,
    ID2,
    ID4,
    SIGMA_X,
    SIGMA_Z,
    NotHermitian,
    herm_eigvals,
    partial_trace,
    tensor,
    trace_norm,
)

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
PROJ_H = np.outer(H, H.conj())
PROJ_V = np.outer(V, V.conj())


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    z = random_complex(rng, (n, n))
    return z + z.conj().T


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_identity():
    assert np.array_equal(tensor(ID2, ID2), ID4)


def test_tensor_sigma_z_identity():
    assert np.array_equal(tensor(SIGMA_Z, ID2), np.diag([1, 1, -1, -1]).astype(complex))


def test_tensor_rank_one_placement():
    out = tensor(PROJ_H, PROJ_V)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0 * 2 + 1, 0 * 2 + 1] = 1.0
    assert np.array_equal(out, expected)


@given(st.lists(finite, min_size=24, max_size=24))
@settings(max_examples=60, deadline=None)
def test_tensor_bilinear(vals):
    v = np.asarray(vals)
    a = (v[0:4] + 1j * v[4:8]).reshape(2, 2)
    b = (v[8:12] + 1j * v[12:16]).reshape(2, 2)
    c = (v[16:20] + 1j * v[20:24]).reshape(2, 2)
    lhs = tensor(a + b, c)
    rhs = tensor(a, c) + tensor(b, c)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(tensor(c, a + b), tensor(c, a) + tensor(c, b), atol=1e-12)


def test_tensor_entry_convention():
    rng = np.random.default_rng(7)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    out = tensor(a, b)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for ell in range(2):
                    assert out[2 * i + k, 2 * j + ell] == pytest.approx(a[i, j] * b[k, ell])


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_factorization():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        assert np.allclose(partial_trace(tensor(a, b), "second"), a * np.trace(b), atol=1e-12)
        assert np.allclose(partial_trace(tensor(a, b), "first"), b * np.trace(a), atol=1e-12)


def test_partial_trace_identity():
    assert np.allclose(partial_trace(ID4, "first"), 2.0 * ID2)
    assert np.allclose(partial_trace(ID4, "second"), 2.0 * ID2)


def test_partial_trace_flip_both_factors():
    # Oracle: build the flip operator independently, entry by entry, and
    # sum the diagonal blocks by hand.
    flip = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            # |j i><i j|
            flip[2 * j + i, 2 * i + j] += 1.0
    assert np.array_equal(flip, FLIP)
    by_hand_second = np.zeros((2, 2), dtype=complex)
    by_hand_first = np.zeros((2, 2), dtype=complex)
    r = flip.reshape(2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                by_hand_second[i, j] += r[i, k, j, k]
                by_hand_first[i, j] += r[k, i, k, j]
    assert np.allclose(by_hand_second, ID2)
    assert np.allclose(by_hand_first, ID2)
    assert np.allclose(partial_trace(FLIP, "second"), ID2)
    assert np.allclose(partial_trace(FLIP, "first"), ID2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_complex(rng, (4, 4))
        for which in ("first", "second"):
            assert np.trace(partial_trace(m, which)) == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_trace_rejects_bad_selector():
    with pytest.raises(ValueError):
        partial_trace(ID4, "third")


# ---------------------------------------------------------------------------
# herm_eigvals
# ---------------------------------------------------------------------------

def test_herm_eigvals_sigma_z():
    assert np.allclose(herm_eigvals(SIGMA_Z), [1.0, -1.0])


def test_herm_eigvals_projector():
    assert np.allclose(herm_eigvals(PROJ_H), [1.0, 0.0])


@given(finite, finite)
@settings(max_examples=100, deadline=None)
def test_herm_eigvals_closed_form_2x2(a, b):
    m = np.array([[a, b], [b, -a]], dtype=complex)
    expected = np.hypot(a, b)
    assert np.allclose(herm_eigvals(m), [expected, -expected], atol=1e-12)


def test_herm_eigvals_4x4_known_spectra():
    assert np.allclose(herm_eigvals(FLIP), [1.0, 1.0, 1.0, -1.0], atol=1e-14)
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert np.allclose(herm_eigvals(np.outer(bell, bell.conj())),
                       [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    # tensor(a, b) has the pairwise products of the 2x2 closed forms
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        pairs = np.outer(herm_eigvals(a), herm_eigvals(b)).ravel()
        assert np.allclose(herm_eigvals(tensor(a, b)), np.sort(pairs)[::-1],
                           atol=1e-12)


def test_herm_eigvals_4x4_trace_identities():
    # sum lambda = tr h and sum lambda^2 = ||h||_F^2
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = random_hermitian(rng, 4)
        vals = herm_eigvals(h)
        assert np.sum(vals) == pytest.approx(np.trace(h).real, abs=1e-12)
        assert np.sum(vals**2) == pytest.approx(np.linalg.norm(h) ** 2, abs=1e-12)


def test_herm_eigvals_2x2_against_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        h = random_hermitian(rng, 2)
        assert np.allclose(herm_eigvals(h), np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-12)


def test_herm_eigvals_unitary_invariance():
    rng = np.random.default_rng(5)
    for n in (2, 4):
        for _ in range(30):
            h = random_hermitian(rng, n)
            u = random_unitary(rng, n)
            assert np.allclose(herm_eigvals(u @ h @ u.conj().T), herm_eigvals(h), atol=1e-10)


def test_herm_eigvals_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        herm_eigvals(np.arange(16, dtype=float).reshape(4, 4) + 1j)


def test_herm_eigvals_rejects_bad_shape_and_nonfinite():
    with pytest.raises(ValueError):
        herm_eigvals(np.eye(3))
    with pytest.raises(ValueError):
        herm_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_herm_eigvals_descending_order():
    rng = np.random.default_rng(6)
    for n in (2, 4):
        for _ in range(20):
            vals = herm_eigvals(random_hermitian(rng, n))
            assert np.all(np.diff(vals) <= 1e-15)


# ---------------------------------------------------------------------------
# trace_norm
# ---------------------------------------------------------------------------

def test_trace_norm_zero():
    rho = 0.5 * ID2
    assert trace_norm(rho - rho) == 0.0


def test_trace_norm_orthogonal_pure_states():
    assert trace_norm(PROJ_H - PROJ_V) == pytest.approx(2.0)


def test_trace_norm_mixed_vs_pure():
    rng = np.random.default_rng(8)
    for _ in range(20):
        psi = random_complex(rng, 2)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        assert trace_norm(0.5 * ID2 - proj) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_is_a_norm():
    rng = np.random.default_rng(9)
    for n in (2, 4):
        for _ in range(40):
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            s = float(rng.standard_normal())
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
            assert trace_norm(s * a) == pytest.approx(abs(s) * trace_norm(a), abs=1e-10)


def test_trace_norm_matches_numpy_oracle():
    rng = np.random.default_rng(10)
    for n in (2, 4):
        for _ in range(50):
            h = random_hermitian(rng, n)
            assert trace_norm(h) == pytest.approx(
                float(np.sum(np.abs(np.linalg.eigvalsh(h)))), abs=1e-10)
