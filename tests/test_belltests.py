"""CHSH and CH evaluators: closed forms, dual-path checks, verdicts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellshot import (
    ChReport,
    ConsistencyError,
    EmptyShotList,
    GammaSet,
    OUTCOMES,
    OutcomeIndex,
    OutOfRange,
    bell_state,
    BellState,
    build_kernel,
    ch_report,
    ch_verdict,
    chsh_report,
    chsh_verdict,
    classical_bounds_check,
    convergence_report,
    custom_state,
    ensemble_chsh,
    invert_distribution,
    joint_povm,
    linalg,
    observed_statistics,
    s_of_xi,
    single_shot_ch_table,
    single_shot_chsh_table,
    werner_state,
)
from bellshot.belltests import (
    CH_RULE,
    CHSH_RULE,
    S_VALUES,
    ChshReport,
    Verdict,
    bound_rule,
    exact_analysis,
    pair_probabilities,
    pauli_correlations,
    require_born_pair_marginals,
)
from bellshot.states import werner_matrices
from conftest import (
    OPTIMAL_BLOCHS,
    ROOT_HALF,
    SINGLET,
    SX,
    SY,
    SZ,
    admissible_draw,
    projector,
    random_state_matrix,
    random_unit,
)

TWO_ROOT_TWO = 2.0 * np.sqrt(2.0)


def test_s_of_xi_is_always_two_in_magnitude():
    for xi in OUTCOMES:
        assert abs(s_of_xi(xi)) == 2


def test_s_of_xi_examples():
    assert s_of_xi(OutcomeIndex(1, 1, 1, 1)) == 2
    assert s_of_xi(OutcomeIndex(1, 1, 1, -1)) == 2
    assert s_of_xi(OutcomeIndex(1, -1, 1, 1)) == -2
    assert s_of_xi(OutcomeIndex(-1, 1, 1, -1)) == -2


def test_sharp_limit_single_shot_equals_s():
    table = single_shot_chsh_table(build_kernel(GammaSet.equal(1.0)))
    for xi in OUTCOMES:
        assert table[xi.to_index()] == pytest.approx(s_of_xi(xi), abs=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 0.9, ROOT_HALF, 0.5, 0.31])
def test_equal_gamma_magnitude_is_state_independent(gamma):
    # every outcome infers the same magnitude 2 / gamma^2
    kernel = build_kernel(GammaSet.equal(gamma))
    table = single_shot_chsh_table(kernel)
    assert np.allclose(np.abs(table), 2.0 / gamma**2, atol=1e-12)
    signs = table * gamma**2 / 2.0
    for xi, sign in zip(OUTCOMES, signs):
        assert sign == pytest.approx(np.sign(s_of_xi(xi)), abs=1e-12)


def test_unequal_gamma_frozen_value():
    kernel = build_kernel(GammaSet(0.6, 0.6, 0.7, 0.5))
    got = single_shot_chsh_table(kernel)[OutcomeIndex(1, 1, 1, 1).to_index()]
    assert got == pytest.approx(100.0 / 21.0, abs=1e-12)


def test_single_shot_chsh_matches_kernel_column_oracle():
    rng = np.random.default_rng(61)
    s_vec = np.array([float(s_of_xi(xi)) for xi in OUTCOMES])
    for _ in range(50):
        kernel = build_kernel(GammaSet(*rng.uniform(0.3, 1.0, size=4)))
        oracle = s_vec @ kernel.table
        table = single_shot_chsh_table(kernel)  # raises if paths diverge
        assert np.allclose(table, oracle, atol=1e-10)


def test_ensemble_chsh_uniform_is_zero():
    kernel = build_kernel(GammaSet.equal(0.8))
    q = invert_distribution(kernel, np.full(16, 1.0 / 16.0))
    assert ensemble_chsh(q) == pytest.approx(0.0, abs=1e-12)


def test_ensemble_chsh_singlet_optimal(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    rho = bell_state(BellState.PSI_MINUS)
    p = observed_statistics(rho, povm)
    kernel = build_kernel(root_half_gammas)
    value = ensemble_chsh(invert_distribution(kernel, p))
    assert value == pytest.approx(-TWO_ROOT_TWO, abs=1e-10)

    # independent route: trace of the Bell operator against the singlet
    ax, ay = OPTIMAL_BLOCHS["x"], OPTIMAL_BLOCHS["y"]
    bu, bv = OPTIMAL_BLOCHS["u"], OPTIMAL_BLOCHS["v"]
    op = np.zeros((4, 4), dtype=complex)
    for wa in (1, -1):
        for wb in (1, -1):
            op += wa * wb * (
                np.kron(projector(ax, wa), projector(bu, wb))
                - np.kron(projector(ax, wa), projector(bv, wb))
                + np.kron(projector(ay, wa), projector(bu, wb))
                + np.kron(projector(ay, wa), projector(bv, wb))
            )
    oracle = np.trace(SINGLET @ op).real
    assert value == pytest.approx(oracle, abs=1e-10)


def test_the_shot_mean_of_single_shot_S():
    kernel = build_kernel(GammaSet.equal(ROOT_HALF))
    table = single_shot_chsh_table(kernel)

    def shot_mean(shots):
        return convergence_report(kernel, shots)["mean_S"]

    xi = OUTCOMES[5]
    assert shot_mean([xi]) == pytest.approx(table[5], abs=1e-12)
    # plain ints and OutcomeIndex mix freely
    assert shot_mean([5, OUTCOMES[5]]) == pytest.approx(table[5], abs=1e-12)
    assert shot_mean(list(range(16))) == pytest.approx(float(np.mean(table)), abs=1e-12)
    with pytest.raises(EmptyShotList):
        shot_mean([])


def test_single_shot_ch_sharp_limit():
    # deterministic conditionals reduce CH to its classical extreme points
    kernel = build_kernel(GammaSet.equal(1.0))
    grid = single_shot_ch_table(kernel)
    rounded = set(np.round(grid, 12).ravel())
    assert rounded == {0.0, -1.0}


def test_single_shot_ch_root_half_values(root_half_gammas):
    kernel = build_kernel(root_half_gammas)
    grid = single_shot_ch_table(kernel)
    assert np.all(
        np.isclose(grid, 0.5, atol=1e-12) | np.isclose(grid, -1.5, atol=1e-12)
    )
    for value in grid.ravel():
        verdict = ch_verdict(float(value))
        assert verdict.status == "violated"
        assert verdict.bound == ("upper" if value > 0 else "lower")
        assert verdict.margin == pytest.approx(0.5, abs=1e-12)


def test_single_shot_ch_dual_path_random_gammas():
    rng = np.random.default_rng(62)
    for _ in range(25):
        kernel = build_kernel(GammaSet(*rng.uniform(0.3, 1.0, size=4)))
        grid = single_shot_ch_table(kernel)  # internal cross-check must hold
        assert grid.shape == (16, 16)
        assert np.all(np.isfinite(grid))


def test_ensemble_ch_mixed_state(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    p = observed_statistics(werner_state(0.0), povm)
    kernel = build_kernel(root_half_gammas)
    ensemble_C = ch_report(kernel, p, invert_distribution(kernel, p)).ensemble_C
    for xi in OUTCOMES:
        assert ensemble_C[xi.to_index()] == pytest.approx(-0.5, abs=1e-12)


def test_ensemble_ch_singlet_optimal(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    kernel = build_kernel(root_half_gammas)
    values = ch_report(kernel, p, invert_distribution(kernel, p)).ensemble_C  # in OUTCOMES order
    assert values.max() == pytest.approx(ROOT_HALF - 0.5, abs=1e-9)
    assert values.min() == pytest.approx(-ROOT_HALF - 0.5, abs=1e-9)


def test_ensemble_ch_matches_born_oracle(optimal_settings, root_half_gammas):
    # the pipeline value must equal the CH combination of sharp
    # Born probabilities computed directly from projectors
    rng = np.random.default_rng(63)
    povm = joint_povm(optimal_settings, root_half_gammas)
    kernel = build_kernel(root_half_gammas)
    blochs = {k: OPTIMAL_BLOCHS[k] for k in ("x", "y", "u", "v")}
    def born(rho, a, wa, b, wb):
        op = np.kron(projector(blochs[a], wa), projector(blochs[b], wb))
        return np.trace(rho @ op).real

    def single(rho, a, wa):
        if a in ("x", "y"):
            op = np.kron(projector(blochs[a], wa), np.eye(2))
        else:
            op = np.kron(np.eye(2), projector(blochs[a], wa))
        return np.trace(rho @ op).real

    for _ in range(5):
        rho = random_state_matrix(rng)
        p = observed_statistics(custom_state(rho), povm)
        ensemble_C = ch_report(kernel, p, invert_distribution(kernel, p)).ensemble_C
        for xi in (OUTCOMES[0], OUTCOMES[7], OUTCOMES[10]):
            x, y, u, v = xi.as_tuple()
            oracle = (
                born(rho, "x", x, "u", u)
                - born(rho, "x", x, "v", v)
                + born(rho, "y", y, "u", u)
                + born(rho, "y", y, "v", v)
                - single(rho, "y", y)
                - single(rho, "u", u)
            )
            assert ensemble_C[xi.to_index()] == pytest.approx(oracle, abs=1e-10)


def test_tsirelson_bound_through_pipeline():
    rng = np.random.default_rng(64)
    rho = bell_state(BellState.PSI_MINUS)
    for _ in range(40):
        settings, gammas = admissible_draw(rng)
        povm = joint_povm(settings, gammas)
        p = observed_statistics(rho, povm)
        kernel = build_kernel(gammas)
        value = ensemble_chsh(invert_distribution(kernel, p))
        assert abs(value) <= TWO_ROOT_TWO + 1e-9


def test_chsh_verdicts():
    v = chsh_verdict(-TWO_ROOT_TWO)
    assert v.status == "violated"
    assert v.margin == pytest.approx(TWO_ROOT_TWO - 2.0, abs=1e-12)
    assert v.bound is None
    assert "bound" not in v.as_dict()

    assert chsh_verdict(1.0).status == "satisfied"
    assert chsh_verdict(1.0).margin == pytest.approx(1.0)
    assert chsh_verdict(-2.0).status == "satisfied (boundary)"
    assert chsh_verdict(2.0 + 5e-13).status == "satisfied (boundary)"
    assert chsh_verdict(2.1).margin == pytest.approx(0.1)


@pytest.mark.parametrize("verdict", [chsh_verdict, ch_verdict])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "a", None, 10**400])
def test_verdicts_refuse_values_that_are_not_finite(verdict, value):
    with pytest.raises(OutOfRange, match="finite"):
        verdict(value)


def reference_chsh_verdict(value: float) -> tuple:
    """The |S| - 2 formula chsh_verdict used before CHSH and CH shared one bound rule,
    kept as the reference that rule must reproduce bit for bit."""
    excess = abs(value) - 2.0
    if excess > linalg.BOUNDARY_TOL:
        return ("violated", excess.hex())
    if abs(excess) <= linalg.BOUNDARY_TOL:
        return ("satisfied (boundary)", 0.0.hex())
    return ("satisfied", (-excess).hex())


def ulps_around(value: float, ulps: int = 3) -> list[float]:
    below, above = [value], [value]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def with_examples(values):
    """Hypothesis @example for each of values."""
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False))
@with_examples([v for base in (2 + 1e-12, 2 - 1e-12, -2 + 1e-12, -2 - 1e-12, -1.000000000001)
                for v in ulps_around(base)])
def test_one_bound_rule_judges_chsh_and_ch(value):
    for verdict in (chsh_verdict, ch_verdict):
        v = verdict(value)
        assert v.status != "satisfied" or v.margin >= 0.0, (verdict.__name__, v)
    v = chsh_verdict(value)
    assert (v.status, v.margin.hex()) == reference_chsh_verdict(value) and v.bound is None


def scalar_bound_verdict(value: float, low: float, high: float, names=("upper", "lower")) -> Verdict:
    """The scalar bound rule that judged one value per call before the rule took arrays,
    copied as the reference the array rule must reproduce bit for bit."""
    try:
        finite = math.isfinite(value)
        value = value if finite else float(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise OutOfRange(f"verdict needs a finite test value, got {value!r}")
    for bound, gap in zip(names, (value - high, low - value)):
        if gap > linalg.BOUNDARY_TOL:
            return Verdict("violated", gap, bound)
    margin = min(high - value, value - low)
    if margin <= linalg.BOUNDARY_TOL:
        return Verdict("satisfied (boundary)", 0.0)
    return Verdict("satisfied", margin)


def bits(verdict: Verdict) -> tuple:
    return verdict.status, float(verdict.margin).hex(), verdict.bound


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False))
@with_examples([v for base in (2 + 1e-12, 2 - 1e-12, -2 + 1e-12, -2 - 1e-12, -1 - 1e-12, -1 + 1e-12,
                               1e-12, -1e-12, -1.000000000001) for v in ulps_around(base)])
def test_the_array_bound_rule_reproduces_the_scalar_rule(value):
    for verdict, rule in ((chsh_verdict, CHSH_RULE), (ch_verdict, CH_RULE)):
        expected = scalar_bound_verdict(value, *rule)
        assert bits(verdict(value)) == bits(expected), verdict.__name__
        # the same value as one entry of an array, as classical_bounds_check judges it
        status, margin, bound = bound_rule(np.array([0.5 * value, value]), *rule)
        assert bits(Verdict(status[1], margin[1], bound[1])) == bits(expected)
    chsh = classical_bounds_check(ChshReport(S_VALUES, value, np.full(16, value)))
    assert chsh["ensemble_S"] == chsh["single_shot_S"][7] == scalar_bound_verdict(value, *CHSH_RULE).as_dict()
    ch = classical_bounds_check(ChReport(np.full((16, 16), value), np.full(16, value)))
    expected = scalar_bound_verdict(value, *CH_RULE)
    assert ch["ensemble_C"][3] == expected.as_dict()
    assert ch["single_shot_C"]["all_violated"] is (expected.status == "violated")


PAULIS_BY_HAND = (np.eye(2), SX, SY, SZ)


def test_pauli_correlations_are_the_traces_against_each_pauli_product():
    rng = np.random.default_rng(22)
    stack = np.array([random_state_matrix(rng) for _ in range(5)])
    by_trace = np.array([[[np.trace(rho @ np.kron(s, t)).real for t in PAULIS_BY_HAND]
                          for s in PAULIS_BY_HAND] for rho in stack])
    assert pauli_correlations(stack).shape == (5, 4, 4)
    assert np.abs(pauli_correlations(stack) - by_trace).max() <= 1e-15
    assert np.abs(pauli_correlations(stack[2]) - by_trace[2]).max() <= 1e-15
    # the singlet: tr rho = 1, no local Bloch vector, T = -I
    assert np.array_equal(pauli_correlations(SINGLET), np.diag([1.0, -1.0, -1.0, -1.0]))


def unsharp(n, gamma, w):
    """(I + w gamma n.sigma) / 2, built from the sharp projector."""
    return 0.5 * (1.0 - gamma) * np.eye(2) + gamma * projector(n, w)


def test_pair_probabilities_are_born_values_of_unsharp_products():
    rng = np.random.default_rng(23)
    rho = random_state_matrix(rng)
    blochs = [OPTIMAL_BLOCHS["x"], OPTIMAL_BLOCHS["y"], random_unit(rng), random_unit(rng)]
    gammas = [0.6, 0.7, 0.8, 0.5]
    by_trace = [[[[np.trace(rho @ np.kron(unsharp(blochs[a], gammas[a], wa),
                                          unsharp(blochs[b], gammas[b], wb))).real
                   for wb in (1, -1)] for wa in (1, -1)] for b in (2, 3)] for a in (0, 1)]
    assert np.abs(pair_probabilities(pauli_correlations(rho), blochs, gammas) - by_trace).max() <= 1e-15


def test_the_double_at_minus_one_minus_the_tolerance_violates_ch():
    # -1 - BOUNDARY_TOL rounds to a double more than BOUNDARY_TOL below -1
    v = ch_verdict(-1.000000000001)
    assert (v.status, v.margin, v.bound) == ("violated", 1.000088900582341e-12, "lower")


def test_ch_verdicts():
    up = ch_verdict(0.5)
    assert (up.status, up.bound) == ("violated", "upper")
    assert up.margin == pytest.approx(0.5)
    lo = ch_verdict(-1.5)
    assert (lo.status, lo.bound) == ("violated", "lower")
    assert lo.margin == pytest.approx(0.5)
    ok = ch_verdict(-0.3)
    assert ok.status == "satisfied"
    assert ok.margin == pytest.approx(0.3)
    assert ch_verdict(0.0).status == "satisfied (boundary)"
    assert ch_verdict(-1.0).status == "satisfied (boundary)"


def test_chsh_report_fields(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    kernel = build_kernel(root_half_gammas)
    report = chsh_report(kernel, p, invert_distribution(kernel, p))
    assert report.ensemble_S == pytest.approx(-TWO_ROOT_TWO, abs=1e-10)
    assert np.all(np.abs(report.s_values) == 2.0)
    assert np.allclose(np.abs(report.single_shot_S), 4.0, atol=1e-12)
    d = report.as_dict()
    assert set(d) == {"s_values", "ensemble_S", "single_shot_S", "bound"}
    assert d["bound"] == 2.0
    assert len(d["single_shot_S"]) == 16


def test_reports_on_random_states():
    rng = np.random.default_rng(65)
    for _ in range(8):
        settings, gammas = admissible_draw(rng)
        povm = joint_povm(settings, gammas)
        rho = custom_state(random_state_matrix(rng))
        p = observed_statistics(rho, povm)
        kernel = build_kernel(gammas)
        q = invert_distribution(kernel, p)
        chsh = chsh_report(kernel, p, q)  # dual-path checks run inside
        ch = ch_report(kernel, p, q)
        assert abs(chsh.ensemble_S) <= TWO_ROOT_TWO + 1e-9
        assert ch.single_shot_C.shape == (16, 16)
        assert ch.ensemble_C.shape == (16,)
        assert ch.bounds == (0.0, -1.0)
        d = ch.as_dict()
        assert set(d) == {"single_shot_C", "ensemble_C", "bounds"}


def test_classical_bounds_check_structure(optimal_settings, root_half_gammas):
    povm = joint_povm(optimal_settings, root_half_gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    kernel = build_kernel(root_half_gammas)

    q = invert_distribution(kernel, p)
    out = classical_bounds_check(chsh_report(kernel, p, q))
    assert out["ensemble_S"]["status"] == "violated"
    assert len(out["single_shot_S"]) == 16
    assert all(v["status"] == "violated" for v in out["single_shot_S"])

    out = classical_bounds_check(ch_report(kernel, p, q))
    assert len(out["ensemble_C"]) == 16
    grid_summary = out["single_shot_C"]
    assert grid_summary["all_violated"] is True
    assert grid_summary["min"] == pytest.approx(-1.5, abs=1e-12)
    assert grid_summary["max"] == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(OutOfRange, match="^report: expected ChshReport or ChReport, got dict$"):
        classical_bounds_check({"not": "a report"})


@pytest.mark.parametrize("value,expected", [
    (-0.5, False),  # inside [-1, 0]
    (0.0, False),
    (1e-12, False),  # within BOUNDARY_TOL of the upper bound
    (2e-12, True),
    (-1.0 - 0.5e-12, False),
    (-1.0 - 2e-12, True),
    (-1.000000000001, True),  # -1 - BOUNDARY_TOL, which rounds to 1.000088900582341e-12 below -1
    (float("nan"), None),  # refused, as ch_verdict refuses it
])
def test_all_violated_matches_ch_verdict(value, expected):
    # the singlet grid at gamma = 1/sqrt(2) holds only 0.5 and -1.5, all violated
    grid = single_shot_ch_table(build_kernel(GammaSet.equal(ROOT_HALF)))
    grid[5, 11] = value
    report = ChReport(single_shot_C=grid, ensemble_C=np.zeros(16))
    if expected is None:
        with pytest.raises(OutOfRange, match=r"^single_shot_C\[5, 11\] = nan is not finite$"):
            classical_bounds_check(report)
        with pytest.raises(OutOfRange):
            ch_verdict(value)
        return
    summary = classical_bounds_check(report)
    loop = all(ch_verdict(float(c)).status == "violated" for c in grid.ravel())
    assert summary["single_shot_C"]["all_violated"] is expected is loop


@pytest.mark.parametrize("offset", [1e-9, 5e-11])
def test_chsh_report_ensemble_routes_must_agree(monkeypatch, optimal_settings,
                                                root_half_gammas, offset):
    from bellshot import belltests

    povm = joint_povm(optimal_settings, root_half_gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    kernel = build_kernel(root_half_gammas)
    ensemble = belltests.ensemble_chsh
    monkeypatch.setattr(belltests, "ensemble_chsh", lambda q: ensemble(q) + offset)
    if offset > 1e-10:
        with pytest.raises(ConsistencyError, match="ensemble CHSH paths disagree at S: "):
            chsh_report(kernel, p, invert_distribution(kernel, p))
    else:
        expected = ensemble(invert_distribution(kernel, p)) + offset
        assert chsh_report(kernel, p, invert_distribution(kernel, p)).ensemble_S == expected


def test_a_report_s_values_cannot_be_written_and_a_later_analysis_is_unaffected(optimal_settings,
                                                                               root_half_gammas):
    # a report's s_values is the module's S_VALUES itself, which every later analysis checks
    # its single-shot table against
    def chsh():
        return exact_analysis(bell_state(BellState.PSI_MINUS), optimal_settings, root_half_gammas)[3]

    first = chsh()
    with pytest.raises(ValueError, match="read-only"):
        first.s_values[:] = -first.s_values
    again = chsh()
    assert np.array_equal(again.s_values, S_VALUES) and again.ensemble_S == first.ensemble_S
    assert np.array_equal(S_VALUES, [s_of_xi(xi) for xi in OUTCOMES])


def test_the_stacked_pair_check_names_the_state_whose_marginals_are_off(optimal_settings, root_half_gammas):
    # the Werner sweep checks a block of states at once: a clean block passes, and a fault in
    # one state's quasi-distribution fails naming that state and the route
    etas = [0.2, 0.4, 0.6, 0.8, 1.0]
    povm, kernel = joint_povm(optimal_settings, root_half_gammas), build_kernel(root_half_gammas)
    p = np.array([observed_statistics(werner_state(eta), povm) for eta in etas])
    q = np.array([invert_distribution(kernel, row).entries for row in p])
    routes = {"observed": (p, root_half_gammas.as_tuple()), "quasi": (q, (1.0,) * 4)}

    def point(i):
        return f"werner_eta {etas[i]!r} "

    require_born_pair_marginals(werner_matrices(etas), optimal_settings, routes, point)
    q[3, [0, 15]] += (0.1, -0.1)  # (+,+,+,+) gains what (-,-,-,-) loses
    with pytest.raises(ConsistencyError, match=r"pair marginal paths disagree at werner_eta 0\.8 quasi \("):
        require_born_pair_marginals(werner_matrices(etas), optimal_settings, routes, point)
