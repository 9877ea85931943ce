"""Property tests over the admissible (state, settings, gamma) region.

Draws include settings whose gamma pairs sit 1e-9 inside POVM positivity.
Hypothesis runs derandomized, without an example database, so every run
checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bellshot import (
    GammaSet,
    ObservableLabel,
    build_kernel,
    cross_marginal,
    custom_state,
    invert_distribution,
    joint_povm,
    kernel_1d,
    observable_set,
    observed_statistics,
    single_shot_ch_table,
    single_shot_chsh_table,
)
from bellshot.measurement import OUTCOMES

from conftest import projector

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


@FIXED
@given(admissible_settings(), state_matrices())
def test_povm_products_and_statistics_equal_per_outcome_loops(drawn, rho):
    obs, gammas = drawn
    povm = joint_povm(obs, gammas)
    state = custom_state(rho)
    for i, xi in enumerate(OUTCOMES):
        a = povm.subsystem_a[2 * int(xi.x < 0) + int(xi.y < 0)]
        b = povm.subsystem_b[2 * int(xi.u < 0) + int(xi.v < 0)]
        assert np.array_equal(povm.product[i], np.kron(a, b))
    probs = np.array([np.trace(state.matrix @ e).real for e in povm.product])
    assert np.array_equal(observed_statistics(state, povm), np.where(probs < 0.0, 0.0, probs))


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


@FIXED
@given(st.floats(0.05, 1.0))
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
