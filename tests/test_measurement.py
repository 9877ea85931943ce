import itertools
import re

import numpy as np
import pytest

from bellshot import (
    GammaSet,
    ObservableLabel,
    ObservableSet,
    ObservableSpec,
    OutcomeIndex,
    bell_state,
    BellState,
    custom_state,
    joint_povm,
    observable_set,
    observed_statistics,
    random_density_matrix,
)
from bellshot.measurement import (
    GAMMA_MIN,
    OUTCOME_ORDER_DOC,
    OUTCOME_SIGNS,
    OUTCOMES,
    PAIR_MARGINALS,
    PAIR_ORDER,
    SIGN_BITS,
    SIGNS,
    as_indices,
    born_probabilities,
    born_traces,
)
from bellshot.errors import ConsistencyError, GammaOutOfRange, NotPositive, OutOfRange

from conftest import (
    OPTIMAL_BLOCHS,
    ROOT_HALF,
    admissible_draw,
    bloch_matrix,
    random_state_matrix,
    random_unit,
    unsharp_element,
)


def test_outcome_index_ordering():
    # lexicographic in (x, y, u, v) with +1 before -1
    assert OUTCOMES[0].as_tuple() == (1, 1, 1, 1)
    assert OUTCOMES[1].as_tuple() == (1, 1, 1, -1)
    assert OUTCOMES[2].as_tuple() == (1, 1, -1, 1)
    assert OUTCOMES[8].as_tuple() == (-1, 1, 1, 1)
    assert OUTCOMES[15].as_tuple() == (-1, -1, -1, -1)
    for i, xi in enumerate(OUTCOMES):
        assert xi.to_index() == i


def test_the_sign_table_is_the_documented_ordering():
    # the one sign table against an independent enumeration, itertools.product with the last
    # sign fastest, and against OUTCOME_ORDER_DOC's index formula, evaluated as written there
    enumerated = list(itertools.product((1, -1), repeat=4))
    assert OUTCOME_SIGNS.tolist() == [list(signs) for signs in enumerated]
    assert SIGN_BITS.tolist() == [[int(w == -1) for w in signs] for signs in enumerated]
    formula = re.sub(r"\[(\w)=-1\]", r"(\1 == -1)", OUTCOME_ORDER_DOC.split("index = ")[1])
    assert formula == "8*(x == -1) + 4*(y == -1) + 2*(u == -1) + (v == -1)"
    for signs in enumerated:
        index = eval(formula, {}, dict(zip("xyuv", signs)))
        assert OUTCOME_SIGNS[index].tolist() == list(signs) and OUTCOMES[index].as_tuple() == signs
    assert SIGNS == (1, -1) and PAIR_ORDER == tuple(itertools.product(SIGNS, repeat=2))
    # column (a, b, i, j) of the pair marginal map: A observable a of (x, y) at SIGNS[i], B
    # observable b of (u, v) at SIGNS[j]
    expected = [[float(signs[a] == SIGNS[i] and signs[2 + b] == SIGNS[j])
                 for a, b, i, j in itertools.product((0, 1), repeat=4)] for signs in enumerated]
    assert PAIR_MARGINALS.tolist() == expected


def test_outcome_index_rejects_bad_signs():
    with pytest.raises(OutOfRange):
        OutcomeIndex(0, 1, 1, 1)
    with pytest.raises(OutOfRange):
        OutcomeIndex(1, 1, 2, 1)


def test_as_indices_accepts_every_shot_form():
    expected = np.array([0, 15, 9, 9], dtype=np.int64)
    for shots in (
        expected,
        expected.astype(np.uint8),
        [0, 15, 9, 9],
        [OUTCOMES[i] for i in expected],
        [0, OutcomeIndex(-1, -1, -1, -1), np.int64(9), OUTCOMES[9]],
    ):
        got = as_indices(shots)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()
    assert as_indices([]).shape == (0,)
    for bad in (np.array([3, 16]), np.array([-1, 2]), [16], [-1], ["a"], [[1]]):
        with pytest.raises(OutOfRange):
            as_indices(bad)


def test_gamma_set_bounds():
    GammaSet.equal(1.0)
    # the product floor GAMMA_MIN: 0.2053 is its equal-gamma root 0.20530 rounded up
    GammaSet.equal(-0.2053)
    GammaSet(GAMMA_MIN, 1.0, 1.0, -1.0)
    with pytest.raises(GammaOutOfRange, match=r"\|gamma_x gamma_y gamma_u gamma_v\| = 0.001773 must"):
        GammaSet.equal(0.2052)
    with pytest.raises(GammaOutOfRange, match=r"at least 0.001776 \(\|gamma\| >= 0.2053 at equal"):
        GammaSet(GAMMA_MIN, 1.0, 1.0, np.nextafter(1.0, 0.0))
    with pytest.raises(GammaOutOfRange):
        GammaSet.equal(1.5)
    with pytest.raises(GammaOutOfRange):
        GammaSet.equal(0.0)
    with pytest.raises(GammaOutOfRange):
        GammaSet(0.5, 0.5, 0.5, 1e-7)
    g = GammaSet(0.6, 0.6, 0.7, 0.5)
    assert g.of(ObservableLabel.U) == 0.7
    assert g.as_tuple() == (0.6, 0.6, 0.7, 0.5)


def test_gamma_set_admits_a_stack_as_its_constructor_does():
    edges = [GAMMA_MIN ** 0.25, 1.0, 0.0, -0.0, float("nan"), float("inf")]
    values = []
    for edge in edges:
        for sign in (1.0, -1.0):
            below = above = sign * edge
            values.append(below)
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                values += [float(below), float(above)]
    values += [1e-300, 0.5, 1.5, 1e300, -1e300]
    rows = [(v, v, v, v) for v in values]
    # unequal rows at the product floor, and a row refused by its range alone
    floor = GAMMA_MIN
    rows += [(1.0, 1.0, -1.0, floor), (1.0, 1.0, 1.0, float(np.nextafter(floor, 0.0))),
             (0.5, 0.5, floor * 4, 1.0), (0.5, 0.5, float(np.nextafter(floor * 4, 0.0)), 1.0),
             (1e300, 1e300, 1.0, 1.0)]

    def admitted(row):
        try:
            GammaSet(*row)
        except GammaOutOfRange:
            return False
        return True

    expected = [admitted(row) for row in rows]
    assert GammaSet.admits(np.array(rows)).tolist() == expected
    # the neighbours of +floor and of +1 (7 values each) fall on both sides, as do the unequal pairs
    assert set(expected[:7]) == set(expected[14:21]) == {True, False}
    assert expected[-5:] == [True, False, True, False, False]


def subsystem_a(pair, gammas):
    """joint_povm's subsystem A for a pair of A observables and their gammas. B holds
    the optimal directions at gamma 1/sqrt(2), where its elements are positive."""
    b_pair = (ObservableSpec(label, OPTIMAL_BLOCHS[label]) for label in "uv")
    return joint_povm(ObservableSet(*pair, *b_pair), GammaSet(*gammas, ROOT_HALF, ROOT_HALF)).subsystem_a


def test_subsystem_element_boundary_case():
    # orthogonal pair at gamma = 1/sqrt(2): quarter-element Bloch norm is
    # exactly 1/4, so the smallest eigenvalue sits at zero
    pair = (
        ObservableSpec(ObservableLabel.X, np.array([0.0, 0.0, 1.0])),
        ObservableSpec(ObservableLabel.Y, np.array([1.0, 0.0, 0.0])),
    )
    elements = subsystem_a(pair, (ROOT_HALF, ROOT_HALF))
    want = 0.25 * (np.eye(2) + (bloch_matrix([0, 0, 1]) + bloch_matrix([1, 0, 0])) * ROOT_HALF)
    assert np.abs(elements[0] - want).max() < 1e-15
    for e in elements:
        vals = np.linalg.eigvalsh(e)
        assert vals.min() > -1e-10
    assert abs(np.linalg.eigvalsh(elements[0]).min()) < 1e-12


def test_sharp_gammas_on_orthogonal_pair_rejected():
    pair = (
        ObservableSpec(ObservableLabel.X, np.array([0.0, 0.0, 1.0])),
        ObservableSpec(ObservableLabel.Y, np.array([1.0, 0.0, 0.0])),
    )
    with pytest.raises(NotPositive) as err:
        subsystem_a(pair, (1.0, 1.0))
    # every element fails; the message names the first in PAIR_ORDER
    assert str(err.value) == (
        "joint element(+1,+1) has min eigenvalue -0.10355339059327377; "
        "gammas (1.0, 1.0) with these directions are unphysical"
    )


def test_rejection_names_first_failing_element_in_pair_order():
    # n1.n2 = 0.8 with opposite gamma signs: (+1,+1) and (-1,-1) hold, the
    # other two elements have Bloch norm 0.6 * sqrt(3.6) > 1
    pair = (
        ObservableSpec(ObservableLabel.X, np.array([0.0, 0.0, 1.0])),
        ObservableSpec(ObservableLabel.Y, np.array([0.6, 0.0, 0.8])),
    )
    with pytest.raises(NotPositive) as err:
        subsystem_a(pair, (0.6, -0.6))
    assert str(err.value) == (
        "joint element(+1,-1) has min eigenvalue -0.034604989415154136; "
        "gammas (0.6, -0.6) with these directions are unphysical"
    )


def test_rejection_names_b_alone_and_a_before_b():
    # B carries the pair above; A the optimal pair, positive at 1/sqrt(2), not at 1
    settings = observable_set(OPTIMAL_BLOCHS["x"], OPTIMAL_BLOCHS["y"], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8])
    with pytest.raises(NotPositive) as err:
        joint_povm(settings, GammaSet(ROOT_HALF, ROOT_HALF, 0.6, -0.6))
    assert str(err.value) == (
        "joint element(+1,-1) has min eigenvalue -0.034604989415154136; "
        "gammas (0.6, -0.6) with these directions are unphysical"
    )
    with pytest.raises(NotPositive) as err:
        joint_povm(settings, GammaSet(1.0, 1.0, 0.6, -0.6))
    assert str(err.value) == (
        "joint element(+1,+1) has min eigenvalue -0.10355339059327377; "
        "gammas (1.0, 1.0) with these directions are unphysical"
    )


def test_subsystem_completeness():
    rng = np.random.default_rng(41)
    for _ in range(25):
        settings, gammas = admissible_draw(rng)
        povm = joint_povm(settings, gammas)
        for elements in (povm.subsystem_a, povm.subsystem_b):
            assert np.abs(elements.sum(axis=0) - np.eye(2)).max() < 1e-12


def test_product_povm_structure(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    assert povm.product.shape == (16, 4, 4)
    assert np.abs(povm.product.sum(axis=0) - np.eye(4)).max() < 1e-12
    for i, xi in enumerate(OUTCOMES):
        a = povm.subsystem_a[PAIR_ORDER.index((xi.x, xi.y))]
        b = povm.subsystem_b[PAIR_ORDER.index((xi.u, xi.v))]
        assert np.abs(povm.product[i] - np.kron(a, b)).max() < 1e-15
        assert np.linalg.eigvalsh(povm.product[i]).min() > -1e-10
        # trace 1/2 per factor for the symmetric build
        assert np.trace(povm.product[i]).real == pytest.approx(0.25, abs=1e-12)


def test_marginal_elements_random_settings():
    # the product elements' A-B pair marginals, by PAIR_MARGINALS, summed over the partner, are
    # each observable's unsharp element (I + w gamma n.sigma) / 2 beside the identity
    rng = np.random.default_rng(42)
    for _ in range(25):
        settings, gammas = admissible_draw(rng)
        povm = joint_povm(settings, gammas)
        pairs = np.tensordot(PAIR_MARGINALS, povm.product, axes=(0, 0)).reshape(4, 2, 2, 4, 4)
        marginals = {"x": pairs[0].sum(axis=1), "y": pairs[2].sum(axis=1),
                     "u": pairs[0].sum(axis=0), "v": pairs[1].sum(axis=0)}
        for label in ObservableLabel:
            n = settings.get(label).bloch
            g = gammas.of(label)
            for i, w in enumerate((1, -1)):
                want = 0.5 * (np.eye(2) + g * w * bloch_matrix(n))
                assert np.abs(unsharp_element(settings, gammas, label, w) - want).max() < 1e-12
                side = (want, np.eye(2)) if label.value in "xy" else (np.eye(2), want)
                assert np.abs(marginals[label.value][i] - np.kron(*side)).max() < 1e-12


def test_observed_statistics_mixed_state_uniform(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    rho = custom_state(np.eye(4) / 4)
    probs = observed_statistics(rho, povm)
    assert np.abs(probs - 1.0 / 16.0).max() < 1e-12


def test_observed_statistics_singlet_closed_form(optimal_settings, root_half_gammas):
    # p(xi') = (1 - gamma^2 s(xi') / sqrt(2)) / 16 for the singlet at the
    # canonical angles with equal gamma
    povm = joint_povm(optimal_settings, root_half_gammas)
    rho = bell_state(BellState.PSI_MINUS)
    probs = observed_statistics(rho, povm)
    for i, xi in enumerate(OUTCOMES):
        s = xi.x * xi.u - xi.x * xi.v + xi.y * xi.u + xi.y * xi.v
        want = (1.0 - 0.5 * s / np.sqrt(2.0)) / 16.0
        assert probs[i] == pytest.approx(want, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_observed_statistics_against_trace_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        settings, gammas = admissible_draw(rng)
        povm = joint_povm(settings, gammas)
        raw = random_state_matrix(rng)
        rho = custom_state(raw)
        probs = observed_statistics(rho, povm)
        for i in range(16):
            want = np.trace(raw @ povm.product[i]).real
            assert probs[i] == pytest.approx(want, abs=1e-12)


def test_born_probabilities_stack_matches_observed_statistics(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    rng = np.random.default_rng(5)
    states = [random_density_matrix(rng) for _ in range(6)]
    stack = born_probabilities(np.array([rho.matrix for rho in states]), povm)
    assert stack.shape == (6, 16)
    for probs, rho in zip(stack, states):
        assert np.array_equal(probs, observed_statistics(rho, povm))
    # the sum check names the first state that fails it
    mixed = np.eye(4) / 4
    with pytest.raises(ConsistencyError, match=r"sum to 1\.2"):
        born_probabilities(np.array([mixed, 1.2 * mixed, 1.3 * mixed]), povm)


@pytest.mark.parametrize("shape", [(1,), (7,), (256,), (3, 5)])
def test_born_traces_of_a_stack_are_each_states_to_the_bit(shape):
    # the stack goes through one 2-D matmul of all its rows, each state alone through its own
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    povm = joint_povm(*admissible_draw(rng))
    stack = np.array([random_state_matrix(rng) for _ in range(np.prod(shape))]).reshape(*shape, 4, 4)
    traces = born_traces(stack, povm.product)
    assert traces.shape == (*shape, 16)
    for rho, row in zip(stack.reshape(-1, 4, 4), traces.reshape(-1, 16)):
        assert np.array_equal(row, born_traces(rho, povm.product))
        assert np.array_equal(row, [np.trace(rho @ e) for e in povm.product])


def test_marginal_recovery_of_statistics():
    # summing the observed statistics over three outcomes reproduces the
    # one-observable unsharp probability
    rng = np.random.default_rng(44)
    settings, gammas = admissible_draw(rng)
    povm = joint_povm(settings, gammas)
    rho = random_density_matrix(rng)
    probs = observed_statistics(rho, povm).reshape(2, 2, 2, 2)
    marg_x = probs.sum(axis=(1, 2, 3))
    for i, w in enumerate((1, -1)):
        element = np.kron(unsharp_element(settings, gammas, ObservableLabel.X, w), np.eye(2))
        want = np.trace(rho.matrix @ element).real
        assert marg_x[i] == pytest.approx(want, abs=1e-12)


def test_observed_statistics_linear_in_state():
    rng = np.random.default_rng(45)
    settings, gammas = admissible_draw(rng)
    povm = joint_povm(settings, gammas)
    r1 = random_state_matrix(rng)
    r2 = random_state_matrix(rng)
    alpha = 0.3
    p1 = observed_statistics(custom_state(r1), povm)
    p2 = observed_statistics(custom_state(r2), povm)
    mix = observed_statistics(custom_state(alpha * r1 + (1 - alpha) * r2), povm)
    assert np.abs(mix - (alpha * p1 + (1 - alpha) * p2)).max() < 1e-12


def test_overfull_parallel_pair_rejected():
    # even parallel directions cannot support gamma_1 = 1 with room left
    # for the partner: the worst-case Bloch norm is the plain sum
    n = random_unit(np.random.default_rng(46))
    pair = (
        ObservableSpec(ObservableLabel.X, n),
        ObservableSpec(ObservableLabel.Y, n),
    )
    with pytest.raises(NotPositive):
        subsystem_a(pair, (1.0, 0.5))
    # at the boundary (norm exactly 1) construction succeeds
    subsystem_a(pair, (0.5, 0.5))
