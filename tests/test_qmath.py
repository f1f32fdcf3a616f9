import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtradeoff.qmath import SIGMA_Z, NotHermitian, herm_eigvals

PROJ_H = np.diag([1.0, 0.0]).astype(complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng):
    z = random_complex(rng, (2, 2))
    return z + z.conj().T


def random_unitary(rng):
    q, r = np.linalg.qr(random_complex(rng, (2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


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


def test_herm_eigvals_2x2_against_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        h = random_hermitian(rng)
        assert np.allclose(herm_eigvals(h), np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-12)


def test_herm_eigvals_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        h = random_hermitian(rng)
        u = random_unitary(rng)
        assert np.allclose(herm_eigvals(u @ h @ u.conj().T), herm_eigvals(h), atol=1e-10)


def test_herm_eigvals_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        herm_eigvals(np.arange(4, dtype=float).reshape(2, 2) + 1j)


def test_herm_eigvals_rejects_bad_shape_and_nonfinite():
    with pytest.raises(ValueError):
        herm_eigvals(np.eye(3))
    with pytest.raises(ValueError):
        herm_eigvals(np.eye(4))
    with pytest.raises(ValueError):
        herm_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_herm_eigvals_descending_order():
    rng = np.random.default_rng(6)
    for _ in range(20):
        vals = herm_eigvals(random_hermitian(rng))
        assert np.all(np.diff(vals) <= 1e-15)
