"""Acceptance gate: nine numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Each criterion checks a closed-form prediction or a cross-validated
pipeline property at a pinned tolerance, plus a wall-clock budget.
"""

import csv
import json
import time

import numpy as np

from bellshot import (
    GammaSet,
    OUTCOMES,
    RngConfig,
    bell_state,
    BellState,
    build_kernel,
    chsh_optimal_angles,
    chsh_report,
    ch_verdict,
    convergence_report,
    ensemble_chsh,
    invert_distribution,
    joint_povm,
    kernel_1d,
    observed_statistics,
    random_density_matrix,
    s_of_xi,
    sample_indices,
    single_shot_ch,
    single_shot_ch_table,
    single_shot_chsh_table,
    werner_state,
)
from bellshot.cli import main
from bellshot.observables import ObservableLabel
from conftest import (ROOT_HALF, SINGLET, admissible_draw, inverted_pair_operators, one_marginal,
                      pair_marginals, projector, sampling_cdf)

TWO_ROOT_TWO = 2.0 * np.sqrt(2.0)
S_VEC = np.array([float(s_of_xi(xi)) for xi in OUTCOMES])
SIGN_INDEX = {1: 0, -1: 1}  # kernel_1d's index of each sign


def report(number, ok, detail, elapsed, budget):
    timing = f"{elapsed:.2f}s (budget {budget:g}s)"
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail} [{timing}]")
    assert ok and elapsed < budget, f"criterion {number}: {detail} [{timing}]"


def test_criterion_1_universal_single_shot_violation():
    t0 = time.perf_counter()
    worst = 0.0
    all_above_bound = True
    for gamma in (0.99, 0.9, 0.8, ROOT_HALF):
        table = single_shot_chsh_table(build_kernel(GammaSet.equal(gamma)))
        worst = max(worst, np.abs(np.abs(table) - 2.0 / gamma**2).max())
        all_above_bound = all_above_bound and bool(np.all(np.abs(table) > 2.0))

    # state independence: 20 random states share one per-shot table
    rng = np.random.default_rng(1001)
    gammas = GammaSet.equal(ROOT_HALF)
    povm = joint_povm(chsh_optimal_angles(), gammas)
    kernel = build_kernel(gammas)
    reference = single_shot_chsh_table(kernel)
    ensembles = []
    for _ in range(20):
        rho = random_density_matrix(rng)
        p = observed_statistics(rho, povm)
        rep = chsh_report(kernel, p, invert_distribution(kernel, p))
        worst = max(worst, np.abs(rep.single_shot_S - reference).max())
        ensembles.append(rep.ensemble_S)
    spread = max(ensembles) - min(ensembles)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and all_above_bound and spread > 0.1
    report(
        1,
        ok,
        f"|S(xi')| = 2/gamma^2 > 2 to {worst:.2e} across states whose "
        f"ensemble values spread {spread:.2f}",
        elapsed,
        1.0,
    )


def test_criterion_2_closed_forms_match_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_chsh = 0.0
    worst_ch = 0.0
    for _ in range(1000):
        g = rng.uniform(0.3, 1.0, size=4)
        gammas = GammaSet(*g)
        kernel = build_kernel(gammas)
        closed = single_shot_chsh_table(kernel)
        brute = S_VEC @ kernel.table
        worst_chsh = max(worst_chsh, np.abs(closed - brute).max())

        xi = OUTCOMES[rng.integers(16)]
        xp = OUTCOMES[rng.integers(16)]
        px = kernel_1d(gammas.of(ObservableLabel.X))[SIGN_INDEX[xi.x], SIGN_INDEX[xp.x]]
        py = kernel_1d(gammas.of(ObservableLabel.Y))[SIGN_INDEX[xi.y], SIGN_INDEX[xp.y]]
        pu = kernel_1d(gammas.of(ObservableLabel.U))[SIGN_INDEX[xi.u], SIGN_INDEX[xp.u]]
        pv = kernel_1d(gammas.of(ObservableLabel.V))[SIGN_INDEX[xi.v], SIGN_INDEX[xp.v]]
        substitution = px * pu - px * pv + py * pu + py * pv - py - pu
        worst_ch = max(worst_ch, abs(substitution - single_shot_ch(kernel, xi, xp)))

    elapsed = time.perf_counter() - t0
    ok = worst_chsh <= 1e-10 and worst_ch <= 1e-10
    report(
        2,
        ok,
        f"1000 unequal-gamma draws: CHSH sum vs closed {worst_chsh:.2e}, "
        f"CH substitution vs closed {worst_ch:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_3_ch_two_values():
    t0 = time.perf_counter()
    grid = single_shot_ch_table(build_kernel(GammaSet.equal(ROOT_HALF)))
    values = {float(v) for v in np.round(grid, 12).ravel()}
    two_valued = values == {0.5, -1.5}
    all_violated = all(
        ch_verdict(float(c)).status == "violated" for c in grid.ravel()
    )
    elapsed = time.perf_counter() - t0
    ok = two_valued and all_violated
    report(
        3,
        ok,
        f"16x16 grid at gamma=1/sqrt(2) is {sorted(values)}, every value "
        "outside [-1, 0]",
        elapsed,
        1.0,
    )


def test_criterion_4_ensemble_decompositions_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst_chsh = 0.0
    worst_ch = 0.0
    for _ in range(100):
        settings, gammas = admissible_draw(rng)
        kernel = build_kernel(gammas)
        povm = joint_povm(settings, gammas)
        rho = random_density_matrix(rng)
        p = observed_statistics(rho, povm)
        q = invert_distribution(kernel, p)

        via_quasi = ensemble_chsh(q)
        via_shots = float(single_shot_chsh_table(kernel) @ p)
        worst_chsh = max(worst_chsh, abs(via_quasi - via_shots))

        xi = OUTCOMES[rng.integers(16)]
        row = np.array([single_shot_ch(kernel, xi, xp) for xp in OUTCOMES])
        by_average = float(row @ p)
        ix, iy, iu, iv = (SIGN_INDEX[w] for w in xi.as_tuple())
        pairs = pair_marginals(q)
        by_marginals = (
            pairs["xu"][ix, iu]
            - pairs["xv"][ix, iv]
            + pairs["yu"][iy, iu]
            + pairs["yv"][iy, iv]
            - one_marginal(q, ObservableLabel.Y)[iy]
            - one_marginal(q, ObservableLabel.U)[iu]
        )
        worst_ch = max(worst_ch, abs(by_average - by_marginals))

    elapsed = time.perf_counter() - t0
    ok = worst_chsh <= 1e-10 and worst_ch <= 1e-10
    report(
        4,
        ok,
        f"100 random states/settings: CHSH decompositions within "
        f"{worst_chsh:.2e}, CH within {worst_ch:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_5_exact_statistics_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst_povm = 0.0
    worst_born = 0.0
    for _ in range(100):
        settings, gammas = admissible_draw(rng)
        kernel = build_kernel(gammas)
        povm = joint_povm(settings, gammas)
        rho = random_density_matrix(rng)
        q = invert_distribution(kernel, observed_statistics(rho, povm))
        operators, tables = inverted_pair_operators(kernel, povm), pair_marginals(q)
        for pair, table in tables.items():
            na, nb = (settings.get(label).bloch for label in pair)
            for i, wa in enumerate((1, -1)):
                for j, wb in enumerate((1, -1)):
                    sharp = np.kron(projector(na, wa), projector(nb, wb))
                    worst_povm = max(worst_povm, np.abs(operators[pair][i, j] - sharp).max())
                    oracle = np.trace(rho.matrix @ sharp).real
                    worst_born = max(worst_born, abs(table[i, j] - oracle))

    elapsed = time.perf_counter() - t0
    ok = worst_povm <= 1e-12 and worst_born <= 1e-10
    report(
        5,
        ok,
        f"100 trials: inverted pair projectors within {worst_povm:.2e}, "
        f"pair marginals vs Born within {worst_born:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_6_tsirelson_three_paths():
    t0 = time.perf_counter()
    gammas = GammaSet.equal(ROOT_HALF)
    settings = chsh_optimal_angles()
    povm = joint_povm(settings, gammas)
    kernel = build_kernel(gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)

    path_quasi = ensemble_chsh(invert_distribution(kernel, p))
    path_average = float(single_shot_chsh_table(kernel) @ p)

    blochs = [settings.get(l).bloch for l in ObservableLabel]
    nx, ny, nu, nv = blochs
    path_traces = 0.0
    for wa in (1, -1):
        for wb in (1, -1):
            weight = wa * wb
            path_traces += weight * np.trace(
                SINGLET
                @ (
                    np.kron(projector(nx, wa), projector(nu, wb))
                    - np.kron(projector(nx, wa), projector(nv, wb))
                    + np.kron(projector(ny, wa), projector(nu, wb))
                    + np.kron(projector(ny, wa), projector(nv, wb))
                )
            ).real

    deviations = [abs(abs(v) - TWO_ROOT_TWO) for v in (path_quasi, path_average, path_traces)]
    spread = max(
        abs(path_quasi - path_average),
        abs(path_quasi - path_traces),
    )
    elapsed = time.perf_counter() - t0
    ok = max(deviations) <= 1e-9 and spread <= 1e-9
    report(
        6,
        ok,
        f"singlet at optimal angles: |S| = 2*sqrt(2) via quasi sum, per-shot "
        f"average, projector traces (max deviation {max(deviations):.2e})",
        elapsed,
        1.0,
    )


def test_criterion_7_negativity_tracks_violation():
    t0 = time.perf_counter()
    gammas = GammaSet.equal(ROOT_HALF)
    povm = joint_povm(chsh_optimal_angles(), gammas)
    kernel = build_kernel(gammas)
    etas = np.linspace(0.0, 1.0, 101)
    min_entries = np.empty(101)
    abs_s = np.empty(101)
    for i, eta in enumerate(etas):
        p = observed_statistics(werner_state(float(eta)), povm)
        q = invert_distribution(kernel, p)
        min_entries[i] = q.min_entry()
        abs_s[i] = abs(ensemble_chsh(q))

    negative_at = int(np.argmax(min_entries < 0.0))
    violating_at = int(np.argmax(abs_s > 2.0))
    same_interval = negative_at == violating_at and negative_at > 0
    contains_threshold = etas[negative_at - 1] <= ROOT_HALF <= etas[negative_at]
    elapsed = time.perf_counter() - t0
    ok = same_interval and contains_threshold
    report(
        7,
        ok,
        f"Werner sweep: negativity and |S|>2 both switch on in "
        f"({etas[negative_at - 1]:.2f}, {etas[negative_at]:.2f}], which contains "
        f"1/sqrt(2)",
        elapsed,
        2.0,
    )


def test_criterion_8_sampling_convergence():
    t0 = time.perf_counter()
    gammas = GammaSet.equal(ROOT_HALF)
    povm = joint_povm(chsh_optimal_angles(), gammas)
    kernel = build_kernel(gammas)
    p = observed_statistics(bell_state(BellState.PSI_MINUS), povm)
    exact = ensemble_chsh(invert_distribution(kernel, p))

    shots = sample_indices(p, 10**6, RngConfig(seed=8675309))
    empirical = convergence_report(kernel, shots)["mean_S"]
    headline = abs(empirical - exact)
    tolerance = 5.0 * np.sqrt(8.0) / 1000.0

    # error scaling: average |error| over 16 substreams per shot count
    table = single_shot_chsh_table(kernel)
    cfg = RngConfig(seed=8675309, stream_count=16)
    cdf = sampling_cdf(p)
    ns = [10**3, 10**4, 10**5, 10**6]
    mean_errors = []
    for n in ns:
        errs = []
        for stream in range(16):
            idx = np.searchsorted(cdf, cfg.generator(stream).random(n), side="right")
            errs.append(abs(float(table[idx].mean()) - exact))
        mean_errors.append(np.mean(errs))
    slope = np.polyfit(np.log10(ns), np.log10(mean_errors), 1)[0]

    elapsed = time.perf_counter() - t0
    ok = headline < tolerance and -0.65 <= slope <= -0.35
    report(
        8,
        ok,
        f"10^6 shots: |mean - exact| = {headline:.2e} < {tolerance:.4f}; "
        f"log-log error slope {slope:.3f} within -0.5 +- 0.15",
        elapsed,
        30.0,
    )


def test_criterion_9_byte_identical_runs(tmp_path):
    t0 = time.perf_counter()
    config = {
        "state": {"bell": "psi_minus"},
        "gammas": ROOT_HALF,
        "shots": 2000,
        "seed": 31337,
        "stream_count": 4,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["run", "--config", str(cfg), "--out", str(out_a)])
    rc_b = main(["run", "--config", str(cfg), "--out", str(out_b)])
    bytes_a = (out_a / "shots.csv").read_bytes()
    bytes_b = (out_b / "shots.csv").read_bytes()
    with open(out_a / "shots.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh))

    elapsed = time.perf_counter() - t0
    ok = rc_a == rc_b == 0 and bytes_a == bytes_b and rows == 2001
    report(
        9,
        ok,
        f"two identical runs wrote byte-identical shot CSVs ({len(bytes_a)} bytes)",
        elapsed,
        10.0,
    )
