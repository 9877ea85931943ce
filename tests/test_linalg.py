import numpy as np
import pytest

from bellshot import linalg
from bellshot.errors import NotHermitian, OutOfRange

from conftest import random_hermitian


def test_trace_product_basics():
    assert linalg.trace_product(linalg.I4, linalg.I4) == pytest.approx(4.0)
    proj00 = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert linalg.trace_product(proj00, proj00) == pytest.approx(1.0)
    rng = np.random.default_rng(12)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert linalg.trace_product(rho, linalg.I4).real == pytest.approx(1.0, abs=1e-12)
    assert abs(linalg.trace_product(rho, rho).imag) < 1e-12


def test_eigvals_match_numpy_oracle():
    rng = np.random.default_rng(13)
    for dim in (2, 4):
        for _ in range(200):
            m = random_hermitian(rng, dim)
            got = linalg.eigvals_hermitian(m)
            want = np.linalg.eigvalsh(m)
            assert np.abs(got - want).max() < 1e-10


def test_eigvals_known_cases():
    assert np.allclose(linalg.eigvals_hermitian(linalg.SIGMA_Z), [-1.0, 1.0])
    assert np.allclose(linalg.eigvals_hermitian(linalg.SIGMA_X), [-1.0, 1.0])
    d = np.diag([3.0, 1.0, 4.0, 1.0]).astype(complex)
    assert np.allclose(linalg.eigvals_hermitian(d), [1.0, 1.0, 3.0, 4.0])


def test_min_eigenvalue_cases():
    assert linalg.min_eigenvalue_hermitian(linalg.I2) == pytest.approx(1.0)
    assert linalg.min_eigenvalue_hermitian(linalg.SIGMA_Z) == pytest.approx(-1.0)
    # unit Bloch vector: eigenvalues of (I + n.sigma)/2 are exactly {0, 1}
    m = 0.5 * (linalg.I2 + 0.6 * linalg.SIGMA_X + 0.8 * linalg.SIGMA_Z)
    assert abs(linalg.min_eigenvalue_hermitian(m)) < 1e-12


def test_eigvals_sum_equals_trace():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = random_hermitian(rng, 4)
        vals = linalg.eigvals_hermitian(m)
        assert abs(vals.sum() - np.trace(m).real) < 1e-10


def test_eigvals_degenerate_and_near_degenerate():
    assert np.allclose(linalg.eigvals_hermitian(linalg.I4), np.ones(4))
    m = np.diag([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0]).astype(complex)
    vals = linalg.eigvals_hermitian(m)
    assert np.abs(vals - 1.0).max() < 1e-12


def test_require_hermitian_rejects():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        linalg.require_hermitian(m)
    with pytest.raises(NotHermitian):
        linalg.eigvals_hermitian(m)
    assert linalg.hermiticity_defect(linalg.SIGMA_Y) <= linalg.HERMITIAN_TOL
    assert linalg.hermiticity_defect(m) > linalg.HERMITIAN_TOL


def test_hermiticity_defect_value():
    m = linalg.SIGMA_X + np.array([[0, 1e-8], [0, 0]])
    assert linalg.hermiticity_defect(m) == pytest.approx(1e-8)


def test_as_finite_validation():
    with pytest.raises(OutOfRange):
        linalg.as_finite(np.zeros((2, 3)), (2, 2), "matrix", dtype=complex)
    with pytest.raises(OutOfRange):
        linalg.as_finite([[np.nan, 0], [0, 0]], (2, 2), "matrix", dtype=complex)
    m = linalg.as_finite([[1, 0], [0, 1]], (2, 2), "matrix", dtype=complex)
    assert m.dtype == complex


def test_eigvals_rejects_other_shapes():
    with pytest.raises(OutOfRange):
        linalg.eigvals_hermitian(np.eye(3, dtype=complex))
