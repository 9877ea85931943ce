"""Property tests over the admissible (state, settings, gamma) region.

Draws include settings whose gamma pairs sit 1e-9 inside POVM positivity.
Hypothesis runs derandomized, without an example database, so every run
checks the same examples.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellshot import inversion, linalg, measurement
from bellshot import (
    GammaOutOfRange,
    GammaSet,
    InversionKernel,
    NotPositive,
    ObservableLabel,
    build_kernel,
    chsh_report,
    cross_marginal,
    custom_state,
    invert_distribution,
    joint_povm,
    kernel_1d,
    observable_set,
    observed_statistics,
    single_marginal,
    single_shot_ch_table,
    single_shot_chsh_table,
)
from bellshot.cli import json_text
from bellshot.belltests import (
    pair_probabilities,
    pauli_correlations,
    single_shot_ch_tables,
    single_shot_chsh_tables,
)
from bellshot.inversion import gamma_free_quasi, kernel_tables, require_column_sums
from bellshot.measurement import (
    GAMMA_MIN,
    OUTCOMES,
    PAIR_ORDER,
    born_probabilities,
    nonpositive_elements,
    product_povm,
    realizable,
    subsystem_elements,
)

from conftest import SX, SY, SZ, admissible_draw, fixed_17g_strings, projector, random_state_matrix

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=25)
UNIT_INTERVAL = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(UNIT_INTERVAL, min_size=3, max_size=3)))
    assume(np.linalg.norm(v) > 0.1)
    return v / np.linalg.norm(v)


@st.composite
def state_matrices(draw):
    g = np.array(draw(st.lists(UNIT_INTERVAL, min_size=32, max_size=32))).reshape(2, 4, 4)
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    assume(np.trace(m).real > 1e-3)
    return m / np.trace(m).real


@st.composite
def admissible_settings(draw):
    """Settings and gammas in [0.3, 0.95] with a positive joint POVM. A pair
    whose worst-case Bloch norm sqrt(g1^2 + g2^2 + 2 g1 g2 |n1.n2|) exceeds
    1, or any pair when `tight` is drawn, is scaled to norm 1 - 1e-9."""
    blochs = [draw(unit_vectors()) for _ in range(4)]
    gs = [draw(st.floats(0.3, 0.95)) for _ in range(4)]
    tight = draw(st.booleans())
    for i, j in ((0, 1), (2, 3)):
        worst = np.sqrt(gs[i] ** 2 + gs[j] ** 2 + 2.0 * gs[i] * gs[j] * abs(blochs[i] @ blochs[j]))
        if tight or worst > 1.0:
            gs[i], gs[j] = (g * (1.0 - 1e-9) / worst for g in (gs[i], gs[j]))
    return observable_set(*blochs), GammaSet(*gs)


def loop_kernel(gammas):
    """The kernel entry by entry, multiplied x, y, u, v from left to right."""
    ks = [kernel_1d(g) for g in gammas.as_tuple()]
    table = np.empty((16, 16))
    for i, xi in enumerate(OUTCOMES):
        for j, xp in enumerate(OUTCOMES):
            entry = 1.0
            for k, w, wp in zip(ks, xi.as_tuple(), xp.as_tuple()):
                entry = entry * k[int(w < 0), int(wp < 0)]
            table[i, j] = entry
    return table


@FIXED
@given(admissible_settings())
def test_kernel_is_the_loop_product_with_unit_column_sums(drawn):
    _, gammas = drawn
    table = build_kernel(gammas).table
    assert np.array_equal(table, loop_kernel(gammas))
    assert np.abs(table.sum(axis=0) - 1.0).max() <= 1e-12


# magnitudes over the whole per-factor range, and above the equal-gamma floor
SIGNED_GAMMA = (st.floats(GAMMA_MIN, 1.0) | st.floats(0.2053, 1.0)).flatmap(
    lambda g: st.sampled_from([g, -g]))


@settings(FIXED, max_examples=200)
@given(st.lists(SIGNED_GAMMA, min_size=4, max_size=4))
def test_kernel_is_the_nested_kron_product_bit_for_bit(values):
    if abs(math.prod(values)) < GAMMA_MIN:  # GammaSet's amplification floor
        with pytest.raises(GammaOutOfRange):
            GammaSet(*values)
        return
    gammas = GammaSet(*values)  # admitted gammas always build a kernel
    kx, ky, ku, kv = (kernel_1d(g) for g in values)
    nested = np.kron(np.kron(np.kron(kx, ky), ku), kv)
    assert build_kernel(gammas).table.tobytes() == InversionKernel(gammas, nested).table.tobytes()


@st.composite
def gamma_stacks(draw):
    """Settings and an odd-length stack of signed, unequal gamma 4-vectors.
    Each pair is left as drawn, which may be unrealizable, or scaled so its
    worst-case Bloch norm is 1 - 1e-9, 1e-9 inside positivity."""
    blochs = [draw(unit_vectors()) for _ in range(4)]
    rows = []
    for _ in range(2 * draw(st.integers(0, 3)) + 1):
        gs = [draw(st.floats(0.45, 1.0)) * draw(st.sampled_from([1.0, -1.0])) for _ in range(4)]
        if draw(st.booleans()):
            for i, j in ((0, 1), (2, 3)):
                worst = np.sqrt(gs[i] ** 2 + gs[j] ** 2
                                + 2.0 * abs(gs[i] * gs[j]) * abs(blochs[i] @ blochs[j]))
                gs[i], gs[j] = (g * (1.0 - 1e-9) / worst for g in (gs[i], gs[j]))
        rows.append(gs)
    return observable_set(*blochs), np.array(rows)


@settings(FIXED, max_examples=100)
@given(gamma_stacks())
def test_stacked_kernel_checks_equal_single_items_bit_for_bit(drawn):
    settings_, stack = drawn
    tables = kernel_tables(stack)
    require_column_sums(tables)
    chsh, ch = single_shot_chsh_tables(tables, stack), single_shot_ch_tables(stack)
    positive = realizable(settings_, stack)
    for row, values in enumerate(stack.tolist()):
        kernel = build_kernel(GammaSet(*values))
        assert tables[row].tobytes() == kernel.table.tobytes()
        assert chsh[row].tobytes() == single_shot_chsh_table(kernel).tobytes()
        assert ch[row].tobytes() == single_shot_ch_table(kernel).tobytes()
        try:
            joint_povm(settings_, kernel.gammas)
            builds = True
        except NotPositive:
            builds = False
        assert positive[row] == builds


def busch_min_eigenvalues(n1, n2, g1, g2) -> np.ndarray:
    """(1 - |a|) / 4 with a = g1 w1 n1 + g2 w2 n2 for (w1, w2) in PAIR_ORDER: the smaller
    eigenvalue of (I + a.sigma) / 4 (Busch, Phys. Rev. D 33, 2253 (1986)), no eigensolve."""
    return np.array([(1.0 - np.linalg.norm(g1 * w1 * n1 + g2 * w2 * n2)) / 4.0 for w1, w2 in PAIR_ORDER])


@settings(FIXED, max_examples=200)
@given(unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(),
       st.lists(SIGNED_GAMMA, min_size=4, max_size=4))
def test_realizability_matches_the_busch_closed_form(x, y, u, v, gammas):
    lam = nonpositive_elements(observable_set(x, y, u, v), gammas)[1]  # rows A, B
    closed = [busch_min_eigenvalues(x, y, *gammas[:2]), busch_min_eigenvalues(u, v, *gammas[2:])]
    assert np.abs(np.subtract(lam, closed)).max() <= 4 * np.finfo(float).eps
    lowest = min(map(np.min, closed))
    if abs(lowest - linalg.PSD_TOL) > 1e-13:  # away from the edge, where rounding could flip it
        assert realizable(observable_set(x, y, u, v), gammas) == (lowest >= linalg.PSD_TOL)


@FIXED
@given(unit_vectors(), unit_vectors())
def test_largest_realizable_equal_gamma_is_closed_form(n1, n2):
    # |a| peaks at gamma sqrt(2 (1 + |n1.n2|)) over the four sign pairs
    edge = 1.0 / np.sqrt(2.0 * (1.0 + abs(n1 @ n2)))
    both = observable_set(n1, n2, n1, n2)
    assert realizable(both, [edge] * 4)
    assert not realizable(both, [1.01 * edge] * 4)


def traces_per_state_and_outcome(stack, operators) -> np.ndarray:
    """Reference Born traces: one np.trace(rho @ E) per state and operator."""
    return np.array([[np.trace(m @ e).real for e in operators] for m in stack])


# odd stack sizes, which no batched kernel splits into even blocks
ODD_STACKS = st.integers(0, 3).flatmap(lambda k: st.lists(state_matrices(), min_size=2 * k + 1,
                                                            max_size=2 * k + 1))


@FIXED
@given(admissible_settings(), state_matrices(), ODD_STACKS)
def test_povm_products_and_statistics_equal_per_outcome_loops(drawn, rho, stack):
    obs, gammas = drawn
    povm = joint_povm(obs, gammas)
    state = custom_state(rho)
    for i, xi in enumerate(OUTCOMES):
        a = povm.subsystem_a[2 * int(xi.x < 0) + int(xi.y < 0)]
        b = povm.subsystem_b[2 * int(xi.u < 0) + int(xi.v < 0)]
        assert np.array_equal(povm.product[i], np.kron(a, b))
    (probs,) = traces_per_state_and_outcome([state.matrix], povm.product)
    assert np.array_equal(observed_statistics(state, povm), np.where(probs < 0.0, 0.0, probs))
    stack = np.array(stack)
    probs = traces_per_state_and_outcome(stack, povm.product)
    assert np.array_equal(born_probabilities(stack, povm), np.where(probs < 0.0, 0.0, probs))
    # the gamma = 1 operators whose traces gamma_free_quasi returns unclamped
    sharp = product_povm(*subsystem_elements(obs, (1.0, 1.0, 1.0, 1.0)))
    (quasi,) = traces_per_state_and_outcome([state.matrix], sharp)
    assert np.array_equal(gamma_free_quasi(state, obs).entries, quasi)


@FIXED
@given(admissible_settings(), state_matrices())
def test_cross_marginals_are_sharp_born_probabilities(drawn, rho):
    obs, gammas = drawn
    observed = observed_statistics(custom_state(rho), joint_povm(obs, gammas))
    q = invert_distribution(build_kernel(gammas), observed)
    for a in (ObservableLabel.X, ObservableLabel.Y):
        for b in (ObservableLabel.U, ObservableLabel.V):
            table = cross_marginal(q, (a, b))
            for i, wa in enumerate((1, -1)):
                for j, wb in enumerate((1, -1)):
                    op = np.kron(projector(obs.get(a).bloch, wa), projector(obs.get(b).bloch, wb))
                    assert abs(table[i, j] - np.trace(rho @ op).real) <= 1e-10


def correlation_route(rho, obs):
    """S = x.Tu - x.Tv + y.Tu + y.Tv from T_ij = tr[rho sigma_i x sigma_j], and each
    observable's sharp +1 probability (1 + n.r) / 2 from the local Bloch vectors
    r = tr[rho sigma x I] (A side) and tr[rho I x sigma] (B side). It touches no POVM,
    kernel or inversion."""
    paulis, one = (SX, SY, SZ), np.eye(2)
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])
    r_a = np.array([np.trace(rho @ np.kron(a, one)).real for a in paulis])
    r_b = np.array([np.trace(rho @ np.kron(one, b)).real for b in paulis])
    x, y, u, v = (obs.get(key).bloch for key in "xyuv")
    plus = {"x": x @ r_a, "y": y @ r_a, "u": u @ r_b, "v": v @ r_b}
    return x @ t @ u - x @ t @ v + y @ t @ u + y @ t @ v, {k: (1.0 + c) / 2.0 for k, c in plus.items()}


def pipeline_route(rho, obs, gammas):
    """Ensemble S and the quasi-distribution through the POVM, the kernel and the
    inversion, looked up on their modules so that a test can patch them."""
    kernel = inversion.build_kernel(gammas)
    p = measurement.observed_statistics(custom_state(rho), measurement.joint_povm(obs, gammas))
    q = invert_distribution(kernel, p)
    return chsh_report(kernel, p, q).ensemble_S, q


def s_gap(rho, obs, gammas) -> float:
    return abs(pipeline_route(rho, obs, gammas)[0] - correlation_route(rho, obs)[0])


def marginal_gap(rho, obs, gammas) -> float:
    q, plus = pipeline_route(rho, obs, gammas)[1], correlation_route(rho, obs)[1]
    return max(abs(single_marginal(q, k)[0] - plus[k]) for k in "xyuv")


@FIXED
@given(admissible_settings(), state_matrices())
def test_correlation_matrix_route_matches_the_pipeline(drawn, rho):
    obs, gammas = drawn
    assert s_gap(rho, obs, gammas) <= linalg.DUAL_PATH_TOL
    assert marginal_gap(rho, obs, gammas) <= linalg.DUAL_PATH_TOL


@FIXED
@given(admissible_settings(), state_matrices())
def test_pauli_correlations_give_the_correlation_route(drawn, rho):
    # belltests' route for validate: sharp pair probabilities from C, their sign-weighted
    # sums E(a, b) = sum w_a w_b P(w_a, w_b) into S, and their row and column sums into the
    # one-observable +1 probabilities
    obs, _ = drawn
    c = pauli_correlations(rho)
    pair = {a + b: pair_probabilities(c, obs.get(a).bloch, obs.get(b).bloch) for a in "xy" for b in "uv"}
    e = {ab: float(np.array([1.0, -1.0]) @ p @ np.array([1.0, -1.0])) for ab, p in pair.items()}
    s, plus = correlation_route(rho, obs)
    assert abs(e["xu"] - e["xv"] + e["yu"] + e["yv"] - s) <= 1e-12
    got = {"x": pair["xu"].sum(axis=1)[0], "y": pair["yv"].sum(axis=1)[0],
           "u": pair["xu"].sum(axis=0)[0], "v": pair["yv"].sum(axis=0)[0]}
    assert max(abs(got[k] - plus[k]) for k in "xyuv") <= 1e-12


def gammas_x_and_u_swapped(gammas):
    gx, gy, gu, gv = gammas.as_tuple()
    return GammaSet(gu, gy, gx, gv)


# wiring bugs that pass every runtime check of `exact`, each with the part of the
# correlation route that sees it: S sees the kernel built from wrong gammas; p reversed
# leaves S and CH as they are (s(-xi) = s(xi)), and only the marginals see it
KERNEL_FREE_MUTANTS = {
    "kernel_gammas_x_u_swapped": (inversion, "build_kernel", s_gap,
                                  lambda build: lambda g: build(gammas_x_and_u_swapped(g))),
    "kernel_gammas_1pct_small": (inversion, "build_kernel", s_gap,
                                 lambda build: lambda g: build(GammaSet(*(0.99 * np.array(g.as_tuple()))))),
    "p_reversed": (measurement, "observed_statistics", marginal_gap,
                   lambda observe: lambda rho, povm: observe(rho, povm)[::-1]),
}


@pytest.mark.parametrize("mutant", sorted(KERNEL_FREE_MUTANTS))
def test_the_correlation_matrix_route_catches_each_mutant(mutant):
    module, name, gap, wrap = KERNEL_FREE_MUTANTS[mutant]
    rng = np.random.default_rng(1006)
    cases = []
    for _ in range(20):  # unequal random gammas, so that no swap or scale is a no-op
        obs, gammas = admissible_draw(rng)
        cases.append((random_state_matrix(rng), obs, gammas))
    assert max(gap(*case) for case in cases) <= linalg.DUAL_PATH_TOL
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, wrap(getattr(module, name)))
        gaps = [gap(*case) for case in cases]
    assert min(gaps) > 1e-10, gaps


@FIXED
@given(st.floats(0.2053, 1.0))
def test_equal_gamma_single_shot_magnitude(gamma):
    table = single_shot_chsh_table(build_kernel(GammaSet.equal(gamma)))
    assert np.allclose(np.abs(table), 2.0 / gamma**2, rtol=1e-12, atol=0.0)


@FIXED
@given(admissible_settings())
def test_ch_table_matches_per_entry_kernel_1d_reference(drawn):
    _, gammas = drawn
    kx, ky, ku, kv = (kernel_1d(g) for g in gammas.as_tuple())
    reference = np.empty((16, 16))
    for i, xi in enumerate(OUTCOMES):
        for j, xp in enumerate(OUTCOMES):
            px, py, pu, pv = (
                k[int(w < 0), int(wp < 0)]
                for k, w, wp in zip((kx, ky, ku, kv), xi.as_tuple(), xp.as_tuple())
            )
            reference[i, j] = px * pu - px * pv + py * pu + py * pv - py - pu
    assert np.abs(single_shot_ch_table(build_kernel(gammas)) - reference).max() <= 1e-12


FIXED_NOTATION = st.floats(1e-4, 1e16, exclude_max=True)
FINITE_OR_FIXED = (
    st.floats(allow_nan=False, allow_infinity=False) | FIXED_NOTATION | FIXED_NOTATION.map(lambda v: -v)
)


@FIXED
@given(st.lists(FINITE_OR_FIXED, min_size=1, max_size=20))
def test_fixed_17g_declines_or_is_percent_17g(values):
    got = fixed_17g_strings(values)
    if all(1e-4 <= abs(v) < 1e16 for v in values):
        assert got is not None
    assert got is None or got == ["%.17g" % v for v in values]


@st.composite
def one_decade(draw):
    """Values of one decimal exponent in %g's fixed range, of either sign, among them short
    decimals such as 2.5 whose 17 digits end in zeros."""
    e = draw(st.integers(-4, 15))
    spread = st.floats(float(f"1e{e}"), float(f"1e{e + 1}"), exclude_max=True)
    short = st.integers(1, 4).flatmap(
        lambda k: st.integers(10 ** (k - 1), 10**k - 1).map(lambda d: float(f"{d}e{e - k + 1}")))
    magnitudes = draw(st.lists(spread | short, min_size=1, max_size=30))
    return [v * draw(st.sampled_from([1.0, -1.0])) for v in magnitudes]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(one_decade())
@example([2.5, -2.5, 3.0, 2.0000000000000004])
@example([-0.25, 0.5, -0.125, 0.1])
@example([1234567890123450.0, -1e15, 9999999999999998.0])
def test_fixed_17g_is_percent_17g_within_one_decade(values):
    assert fixed_17g_strings(values) == ["%.17g" % v for v in values]


JSON_LEAVES = (
    st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), float("-inf")])
    | st.integers()
    | st.integers(2**64, 10**300)
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.floats() | st.floats().map(np.float64))
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)

NAN = float("nan")


@settings(FIXED, max_examples=100)
@given(JSON_VALUES)
@example({"a": [1e16, -0.0, 5e-324, 1e-5], "b": [float("nan"), 1.0], "c": [[], {}, ()],
          "d": (np.float64(0.1), float("-inf")), "e": [10**300, True, None, 'q"\\\x01\u00e9']})
# the float table's traps: values equal to a formatted float that print otherwise
@example([[0.0, -0.0, 0.0], [-0.0], [0.0], -0.0, 0.0])  # zeros in one list and across lists
@example([1.0, 1, True, np.float64(1.0), [1.0, 1, True], [1.0, np.float64(1.0)], {"k": 1}])
@example([NAN, NAN, float("nan"), [NAN], {"k": NAN}])  # NaN after NaN, the same object and another
@example([0.1, [0.1, [0.1, [0.1, 0.1]]], {"k": [0.1, -0.1]}, (0.1,)])  # one value repeated in nested lists
def test_json_text_is_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)
