import numpy as np
import pytest

from bellshot import (
    ObservableLabel,
    ObservableSet,
    ObservableSpec,
    SharpPovm,
    bloch_operator,
    chsh_optimal_angles,
    observable_set,
    sharp_povm,
)
from bellshot.errors import NotPSD, OutOfRange

from conftest import OPTIMAL_BLOCHS, ROOT_HALF, SINGLET, bloch_matrix, projector, random_unit


def test_bloch_operator_matches_pauli_expansion():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = random_unit(rng)
        assert np.abs(bloch_operator(n) - bloch_matrix(n)).max() < 1e-15


def test_sharp_povm_z_and_x():
    z = sharp_povm(ObservableSpec(ObservableLabel.X, np.array([0.0, 0.0, 1.0])))
    assert np.abs(z.element_plus - np.diag([1.0, 0.0])).max() < 1e-15
    x = sharp_povm(ObservableSpec(ObservableLabel.Y, np.array([1.0, 0.0, 0.0])))
    assert np.abs(x.element_plus - 0.5 * np.ones((2, 2))).max() < 1e-15


def test_sharp_povm_properties_random_directions():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = random_unit(rng)
        povm = sharp_povm(ObservableSpec(ObservableLabel.U, n))
        total = povm.element_plus + povm.element_minus
        assert np.abs(total - np.eye(2)).max() < 1e-12
        for e in (povm.element_plus, povm.element_minus):
            assert np.abs(e @ e - e).max() < 1e-10
            assert np.linalg.eigvalsh(e).min() > -1e-10
        # orthogonal outcomes
        assert abs(np.trace(povm.element_plus @ povm.element_minus)) < 1e-12
        # the observable operator is recovered from the element difference
        diff = povm.element_plus - povm.element_minus
        assert np.trace(diff @ bloch_matrix(n)).real / 2 == pytest.approx(1.0, abs=1e-12)


def test_element_accessor_signs():
    n = np.array([0.0, 1.0, 0.0])
    povm = sharp_povm(ObservableSpec(ObservableLabel.V, n))
    assert np.array_equal(povm.element(+1), povm.element_plus)
    assert np.array_equal(povm.element(-1), povm.element_minus)


def test_non_unit_bloch_rejected():
    with pytest.raises(OutOfRange):
        ObservableSpec(ObservableLabel.X, np.array([0.0, 0.0, 0.9]))
    with pytest.raises(OutOfRange):
        ObservableSpec(ObservableLabel.X, np.array([1.0, 1.0, 0.0]))


def test_sharp_povm_rejects_non_projector():
    # a pair that sums to identity but is not projective
    e = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(NotPSD):
        SharpPovm(element_plus=e, element_minus=np.eye(2, dtype=complex) - e)


def test_optimal_angles_vectors():
    settings = chsh_optimal_angles()
    assert np.allclose(settings.x.bloch, OPTIMAL_BLOCHS["x"])
    assert np.allclose(settings.y.bloch, OPTIMAL_BLOCHS["y"])
    assert np.allclose(settings.u.bloch, OPTIMAL_BLOCHS["u"])
    assert np.allclose(settings.v.bloch, OPTIMAL_BLOCHS["v"])
    for spec in (settings.x, settings.y, settings.u, settings.v):
        assert np.linalg.norm(spec.bloch) == pytest.approx(1.0, abs=1e-12)
    # the two pairs fed to the joint measurement are orthogonal
    assert abs(settings.x.bloch @ settings.y.bloch) < 1e-12
    assert abs(settings.u.bloch @ settings.v.bloch) < 1e-12


def test_optimal_angles_singlet_correlations():
    settings = chsh_optimal_angles()
    corr = {}
    for a in ("x", "y"):
        for b in ("u", "v"):
            na = getattr(settings, a).bloch
            nb = getattr(settings, b).bloch
            val = 0.0
            for wa in (1, -1):
                for wb in (1, -1):
                    p = np.trace(SINGLET @ np.kron(projector(na, wa), projector(nb, wb))).real
                    val += wa * wb * p
            corr[a + b] = val
    assert corr["xu"] == pytest.approx(-ROOT_HALF, abs=1e-12)
    assert corr["yu"] == pytest.approx(-ROOT_HALF, abs=1e-12)
    assert corr["yv"] == pytest.approx(-ROOT_HALF, abs=1e-12)
    assert corr["xv"] == pytest.approx(ROOT_HALF, abs=1e-12)
    s = corr["xu"] - corr["xv"] + corr["yu"] + corr["yv"]
    assert s == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-12)


def test_observable_set_label_binding():
    settings = observable_set(
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    assert settings.get(ObservableLabel.X) is settings.x
    assert settings.get(ObservableLabel.V) is settings.v
    assert settings.u.label is ObservableLabel.U


def test_observable_in_the_wrong_slot_is_refused():
    s = chsh_optimal_angles()
    with pytest.raises(OutOfRange, match="^observable in slot 'x' carries label 'y'$"):
        ObservableSet(s.y, s.x, s.u, s.v)
