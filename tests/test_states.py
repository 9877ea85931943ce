import numpy as np
import pytest

from bellshot import (
    BellState,
    DensityMatrix,
    bell_state,
    custom_state,
    random_density_matrix,
    werner_state,
)
from bellshot.errors import NotHermitian, NotPSD, NotUnitTrace, OutOfRange
from bellshot.states import density_matrices, werner_matrices

from conftest import SINGLET, random_state_matrix


def test_singlet_matrix_entries():
    rho = bell_state(BellState.PSI_MINUS).matrix
    assert np.abs(rho - SINGLET).max() < 1e-15


@pytest.mark.parametrize("which", list(BellState))
def test_bell_states_are_pure(which):
    rho = bell_state(which).matrix
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    # rank-1 projector: rho^2 = rho
    assert np.abs(rho @ rho - rho).max() < 1e-12


def test_bell_states_mutually_orthogonal():
    mats = [bell_state(w).matrix for w in BellState]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.trace(mats[i] @ mats[j])) < 1e-12


def test_singlet_partial_transpose_min_eigenvalue():
    rho = bell_state(BellState.PSI_MINUS).matrix
    # partial transpose on the second qubit
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    vals = np.linalg.eigvalsh(pt)
    assert vals.min() == pytest.approx(-0.5, abs=1e-12)


def test_werner_endpoints():
    assert np.abs(werner_state(0.0).matrix - np.eye(4) / 4).max() < 1e-15
    assert np.abs(werner_state(1.0).matrix - SINGLET).max() < 1e-15


def test_werner_half_eigenvalues():
    vals = np.linalg.eigvalsh(werner_state(0.5).matrix)
    # (1 - eta)/4 three times, (1 + 3 eta)/4 once
    assert np.allclose(vals, [0.125, 0.125, 0.125, 0.625], atol=1e-12)
    assert vals.min() == pytest.approx(0.125, abs=1e-12)


def test_werner_range_check():
    with pytest.raises(OutOfRange):
        werner_state(-0.01)
    with pytest.raises(OutOfRange):
        werner_state(1.01)


def test_werner_matrices_match_werner_state_bit_for_bit():
    etas = np.linspace(0.0, 1.0, 13)
    stack = werner_matrices(etas)
    assert stack.shape == (13, 4, 4)
    for eta, m in zip(etas.tolist(), stack):
        assert np.array_equal(m, werner_state(eta).matrix)


def test_density_matrix_checks_name_the_first_failing_matrix():
    ok = np.eye(4) / 4
    psd = [np.diag([0.6, 0.5, 0.0, -0.1]), np.diag([0.7, 0.5, 0.0, -0.2])]
    with pytest.raises(NotUnitTrace, match=r"trace = 1\.01, expected 1"):
        density_matrices([ok, ok * 1.01, ok * 1.02], stack_axes=1)
    with pytest.raises(NotPSD, match=r"min eigenvalue = -0\.1 below"):
        density_matrices([[ok, *psd]], stack_axes=2)
    assert density_matrices([ok, ok], stack_axes=1).shape == (2, 4, 4)
    # one DensityMatrix holds one state
    with pytest.raises(OutOfRange):
        DensityMatrix(np.array([ok, ok]))


def test_custom_state_accepts_valid():
    rho = custom_state(np.eye(4) / 4)
    assert isinstance(rho, DensityMatrix)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def test_custom_state_rejections_name_the_problem():
    with pytest.raises(NotPSD):
        custom_state(np.diag([2.0, -1.0, 0.0, 0.0]))
    with pytest.raises(NotUnitTrace):
        custom_state(np.diag([0.5, 0.5, 0.5, 0.5]))
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.2j  # no conjugate partner
    with pytest.raises(NotHermitian):
        custom_state(bad)


def test_random_density_matrices_validate():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = random_density_matrix(rng).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_product_states_validate():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = random_state_matrix(rng)[:2, :2]
        a = a / np.trace(a).real
        b = random_state_matrix(rng)[:2, :2]
        b = b / np.trace(b).real
        # qubit blocks of a random state are valid single-qubit states
        custom_state(np.kron(a, b))


def test_density_matrix_is_frozen():
    rho = bell_state(BellState.PHI_PLUS)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0
