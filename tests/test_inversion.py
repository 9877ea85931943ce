import numpy as np
import pytest

from bellshot import (
    BellState,
    GammaSet,
    InversionKernel,
    ObservableLabel,
    QuasiDistribution,
    bell_state,
    build_kernel,
    chsh_optimal_angles,
    chsh_report,
    custom_state,
    invert_distribution,
    joint_povm,
    kernel_1d,
    observable_set,
    observed_statistics,
)
from bellshot.errors import ConsistencyError, GammaOutOfRange, InvalidDistribution, OutOfRange
from bellshot.inversion import require_quasi_entries
from bellshot.measurement import OUTCOMES
from bellshot.validate import random_admissible_settings

from conftest import (
    ROOT_HALF,
    inverted_pair_operators,
    one_marginal,
    pair_marginals,
    projector,
    random_state_matrix,
)

# 1D inversion entries at gamma = 1/sqrt(2): (1 +- sqrt(2)) / 2
PLUS_ENTRY = 1.2071067811865475
MINUS_ENTRY = -0.20710678118654746


def test_kernel_1d_sharp_limit_is_identity():
    assert np.abs(kernel_1d(1.0) - np.eye(2)).max() < 1e-15


def test_kernel_1d_root_half_values():
    k = kernel_1d(ROOT_HALF)
    assert k[0, 0] == pytest.approx(PLUS_ENTRY, abs=1e-15)
    assert k[1, 0] == pytest.approx(MINUS_ENTRY, abs=1e-15)
    assert k[0, 1] == pytest.approx(MINUS_ENTRY, abs=1e-15)
    assert k[1, 1] == pytest.approx(PLUS_ENTRY, abs=1e-15)


def test_kernel_1d_columns_sum_to_one():
    rng = np.random.default_rng(51)
    for _ in range(50):
        g = float(rng.uniform(0.05, 1.0)) * (1 if rng.random() < 0.5 else -1)
        k = kernel_1d(g)
        assert np.abs(k.sum(axis=0) - 1.0).max() < 1e-12


def test_kernel_1d_gamma_bounds():
    with pytest.raises(GammaOutOfRange):
        kernel_1d(0.0)
    with pytest.raises(GammaOutOfRange):
        kernel_1d(1.0 + 1e-9)


def test_build_kernel_sharp_limit_identity():
    kernel = build_kernel(GammaSet.equal(1.0))
    assert np.abs(kernel.table - np.eye(16)).max() < 1e-15


def test_build_kernel_diagonal_entry_root_half():
    kernel = build_kernel(GammaSet.equal(ROOT_HALF))
    # matched outcome: fourth power of the 1D diagonal entry
    want = PLUS_ENTRY**4
    assert want == pytest.approx(2.123160171779821, abs=1e-15)
    for i in range(16):
        assert kernel.table[i, i] == pytest.approx(want, abs=1e-12)


def test_build_kernel_factorizes():
    rng = np.random.default_rng(52)
    gammas = GammaSet(0.61, 0.45, 0.52, 0.71)
    kernel = build_kernel(gammas)
    ks = {lab: kernel_1d(gammas.of(lab)) for lab in ObservableLabel}
    for _ in range(40):
        i, j = rng.integers(16, size=2)
        xi, xp = OUTCOMES[i], OUTCOMES[j]
        want = 1.0
        for lab, w, wp in (
            (ObservableLabel.X, xi.x, xp.x),
            (ObservableLabel.Y, xi.y, xp.y),
            (ObservableLabel.U, xi.u, xp.u),
            (ObservableLabel.V, xi.v, xp.v),
        ):
            want *= ks[lab][(w == -1) * 1, (wp == -1) * 1]
        assert kernel.table[i, j] == pytest.approx(want, rel=1e-12)


def test_build_kernel_column_sums():
    rng = np.random.default_rng(53)
    for _ in range(20):
        _, gammas = random_admissible_settings(rng)
        kernel = build_kernel(gammas)
        assert np.abs(kernel.table.sum(axis=0) - 1.0).max() < 1e-12


def test_kernel_table_must_be_finite():
    # the table's admission refuses a NaN, naming its entry, before the column-sum check sees it
    gammas = GammaSet.equal(0.8)
    table = build_kernel(gammas).table.copy()
    table[2, 5] = np.nan
    with pytest.raises(ConsistencyError, match=r"^kernel table\[2, 5\] = nan is not finite$"):
        InversionKernel(gammas, table)


def test_invert_identity_kernel_passthrough():
    kernel = build_kernel(GammaSet.equal(1.0))
    rng = np.random.default_rng(54)
    p = rng.dirichlet(np.ones(16))
    q = invert_distribution(kernel, p)
    assert np.abs(q.entries - p).max() < 1e-14


def test_invert_uniform_stays_uniform():
    kernel = build_kernel(GammaSet(0.5, 0.7, 0.6, 0.8))
    q = invert_distribution(kernel, np.full(16, 1.0 / 16.0))
    # oracle: row sums of the product kernel are 1, so uniform is fixed
    oracle = kernel.table @ np.full(16, 1.0 / 16.0)
    assert np.abs(q.entries - 1.0 / 16.0).max() < 1e-14
    assert np.abs(np.asarray(q.entries) - oracle).max() < 1e-15


def test_quasi_distribution_sums_to_one():
    rng = np.random.default_rng(55)
    for _ in range(25):
        settings, gammas = random_admissible_settings(rng)
        povm = joint_povm(settings, gammas)
        kernel = build_kernel(gammas)
        rho = custom_state(random_state_matrix(rng))
        q = invert_distribution(kernel, observed_statistics(rho, povm))
        assert sum(q.entries) == pytest.approx(1.0, abs=1e-10)


def test_singlet_negativity_at_root_half(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    kernel = build_kernel(root_half_gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    q = invert_distribution(kernel, p)
    assert q.is_negative()
    # closed form: (1 - sqrt(2)) / 16 at the 8 outcomes with s(xi) = +2
    assert q.min_entry() == pytest.approx((1.0 - np.sqrt(2.0)) / 16.0, abs=1e-12)


def test_product_state_negativity_is_not_nonlocality(optimal_settings, root_half_gammas):
    # psi x psi with both Bloch vectors at 45 degrees in the x-z plane: q turns negative
    # because x, y (and u, v) are incompatible, while S stays inside |S| <= 2
    psi = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    one = np.outer(psi, psi)
    p = observed_statistics(custom_state(np.kron(one, one)), joint_povm(optimal_settings, root_half_gammas))
    kernel = build_kernel(root_half_gammas)
    q = invert_distribution(kernel, p)
    assert q.is_negative()
    assert q.min_entry() == pytest.approx((1.0 - np.sqrt(2.0)) / 8.0, abs=1e-12)
    assert chsh_report(kernel, p, q).ensemble_S == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_the_kernel_on_the_joint_povm_gives_sharp_pair_projectors():
    # the inversion undoes the unsharpness on the objects the commands use: the kernel table
    # applied to the product POVM, marginalized by PAIR_MARGINALS, gives sharp projector pairs
    rng = np.random.default_rng(56)
    for _ in range(25):
        settings, gammas = random_admissible_settings(rng)
        povm = joint_povm(settings, gammas)
        kernel = build_kernel(gammas)
        for pair, operators in inverted_pair_operators(kernel, povm).items():
            na, nb = (settings.get(label).bloch for label in pair)
            for i, wa in enumerate((1, -1)):
                for j, wb in enumerate((1, -1)):
                    want = np.kron(projector(na, wa), projector(nb, wb))
                    assert np.abs(operators[i, j] - want).max() < 1e-12


def test_cross_marginals_match_born_probabilities():
    rng = np.random.default_rng(57)
    for _ in range(15):
        settings, gammas = random_admissible_settings(rng)
        povm = joint_povm(settings, gammas)
        kernel = build_kernel(gammas)
        raw = random_state_matrix(rng)
        q = invert_distribution(kernel, observed_statistics(custom_state(raw), povm))
        for pair, table in pair_marginals(q).items():
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            na = settings.get(pair[0]).bloch
            nb = settings.get(pair[1]).bloch
            for i, wa in enumerate((1, -1)):
                for j, wb in enumerate((1, -1)):
                    want = np.trace(raw @ np.kron(projector(na, wa), projector(nb, wb))).real
                    assert table[i, j] == pytest.approx(want, abs=1e-10)


def test_cross_marginal_singlet_anticorrelation():
    # X and U both along z: the singlet never gives equal outcomes
    settings = observable_set(
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    gammas = GammaSet.equal(ROOT_HALF)
    povm = joint_povm(settings, gammas)
    kernel = build_kernel(gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    table = pair_marginals(invert_distribution(kernel, p))["xu"]
    assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert table[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert table[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert table[1, 0] == pytest.approx(0.5, abs=1e-12)


BAD_LABELS = {
    "gamma_of": lambda: GammaSet.equal(0.7).of("q"),
    "settings_get": lambda: chsh_optimal_angles().get("z"),
    "bell_state_name": lambda: bell_state("nope"),
    "bell_state_int": lambda: bell_state(3),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_unknown_labels_and_names_raise_out_of_range_naming_the_choices(case):
    with pytest.raises(OutOfRange) as info:
        BAD_LABELS[case]()
    message = str(info.value)
    assert "x, y, u, v" in message or "psi_minus" in message


def test_labels_may_be_given_as_strings():
    gammas, settings = GammaSet(0.5, 0.6, 0.7, 0.8), chsh_optimal_angles()
    assert gammas.of("u") == gammas.of(ObservableLabel.U) == 0.7
    assert settings.get("y") is settings.get(ObservableLabel.Y) is settings.y


def test_single_marginals_match_born_probabilities():
    rng = np.random.default_rng(58)
    settings, gammas = random_admissible_settings(rng)
    povm = joint_povm(settings, gammas)
    kernel = build_kernel(gammas)
    raw = random_state_matrix(rng)
    q = invert_distribution(kernel, observed_statistics(custom_state(raw), povm))
    for label in ObservableLabel:
        n = settings.get(label).bloch
        got = one_marginal(q, label)
        side = np.eye(2, dtype=complex)
        for i, w in enumerate((1, -1)):
            if label in (ObservableLabel.X, ObservableLabel.Y):
                op = np.kron(projector(n, w), side)
            else:
                op = np.kron(side, projector(n, w))
            assert got[i] == pytest.approx(np.trace(raw @ op).real, abs=1e-10)


@pytest.mark.parametrize("label", "xyuv")
def test_a_one_observable_marginal_is_the_same_from_either_partner(label):
    # PAIR_MARGINALS holds no single-observable column: an observable's marginal is a pair
    # block summed over its partner, and both of its pairs give the outcomes' own sign sum,
    # negative quasi entries included
    rng = np.random.default_rng(59)
    entries = rng.normal(size=16)
    q = QuasiDistribution(entries - (entries.sum() - 1.0) / 16.0)
    want = [sum(q.entries[k] for k, xi in enumerate(OUTCOMES) if getattr(xi, label) == w) for w in (1, -1)]
    pairs = pair_marginals(q)
    side = 1 if label in "xy" else 0  # the axis of the partner
    for pair in [pair for pair in pairs if label in pair]:
        assert pairs[pair].sum(axis=side) == pytest.approx(want, abs=1e-12)
    assert one_marginal(q, label) == pytest.approx(want, abs=1e-12)


def test_quasi_distribution_validation():
    with pytest.raises(InvalidDistribution):
        QuasiDistribution(np.full(16, 0.07))  # sums to 1.12
    with pytest.raises(InvalidDistribution):
        QuasiDistribution(np.full(15, 1.0 / 15.0))
    entries = np.full(16, 1.0 / 16.0)
    entries[3] = np.nan
    with pytest.raises(InvalidDistribution):
        QuasiDistribution(entries)


def test_quasi_checks_name_the_first_failing_distribution():
    stack = np.array([np.full(16, 1 / 16), np.full(16, 0.07), np.full(16, 0.08)])
    with pytest.raises(InvalidDistribution, match=r"sums to 1\.12"):
        require_quasi_entries(stack)
    require_quasi_entries(stack[:1])


@pytest.mark.parametrize("bad,total", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_a_non_finite_entry_fails_the_stacked_sum_check(bad, total):
    stack = np.full((3, 16), 1 / 16)
    stack[1, 4] = bad
    with pytest.raises(InvalidDistribution, match=rf"^quasi-distribution sums to {total}, expected 1$"):
        require_quasi_entries(stack)


def test_negative_entries_are_preserved():
    entries = np.full(16, 1.0 / 16.0)
    entries[0] -= 0.05
    entries[1] += 0.05
    q = QuasiDistribution(entries)
    assert q.min_entry() == pytest.approx(1.0 / 16.0 - 0.05)
    assert q.is_negative() is False  # negative means below zero, not below 1/16
    entries[0] -= 0.05
    entries[2] += 0.05
    q2 = QuasiDistribution(entries)
    assert q2.is_negative() is True
    assert min(q2.to_list()) == pytest.approx(q2.min_entry())
