"""Philox-keyed sampling, shot records, and convergence summaries."""

import csv
import io

import numpy as np
import pytest

from bellshot import (
    EmptyShotList,
    GammaSet,
    InvalidDistribution,
    OUTCOMES,
    OutOfRange,
    RngConfig,
    build_kernel,
    convergence_report,
    empirical_frequencies,
    ensemble_chsh,
    ensemble_from_shots,
    invert_distribution,
    s_of_xi,
    sample_indices,
    sample_shots,
    shot_records,
    single_shot_chsh_table,
    write_shot_csv,
)
from bellshot import sampler
from bellshot.sampler import SHOT_CSV_HEADER, sample_outcome_indices
from conftest import ROOT_HALF, fixed_17g_strings


def singlet_optimal_probabilities():
    # closed form for the singlet at optimal angles with equal gamma
    g2 = ROOT_HALF**2
    return np.array(
        [(1.0 - g2 * s_of_xi(xi) / np.sqrt(2.0)) / 16.0 for xi in OUTCOMES]
    )


def test_rng_config_validation():
    with pytest.raises(OutOfRange):
        RngConfig(seed=-1)
    with pytest.raises(OutOfRange):
        RngConfig(seed=3, stream_count=0)
    cfg = RngConfig(seed=3, stream_count=2)
    with pytest.raises(OutOfRange):
        cfg.generator(2)
    assert isinstance(cfg.generator(0), np.random.Generator)


def test_sampling_is_deterministic():
    p = singlet_optimal_probabilities()
    a = sample_shots(p, 200, RngConfig(seed=12345, stream_count=4))
    b = sample_shots(p, 200, RngConfig(seed=12345, stream_count=4))
    assert a == b
    c = sample_shots(p, 200, RngConfig(seed=12346, stream_count=4))
    assert a != c


def test_degenerate_distribution():
    p = np.zeros(16)
    p[9] = 1.0
    shots = sample_shots(p, 50, RngConfig(seed=1))
    assert all(xi.to_index() == 9 for xi in shots)


def test_uniform_counts():
    n = 160000
    shots = sample_shots(np.full(16, 1.0 / 16.0), n, RngConfig(seed=404))
    counts = np.bincount([xi.to_index() for xi in shots], minlength=16)
    # 5 sigma around the expected 10000, sigma = sqrt(n p (1-p)) ~ 96.8
    assert np.all(np.abs(counts - n / 16) < 5 * np.sqrt(n * (1 / 16) * (15 / 16)))


def test_invalid_distributions_rejected():
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    with pytest.raises(InvalidDistribution):
        sample_outcome_indices(np.full(15, 1.0 / 15.0), 1, rng)
    bad = np.full(16, 1.0 / 16.0)
    bad[3] = np.nan
    with pytest.raises(InvalidDistribution):
        sample_outcome_indices(bad, 1, rng)
    neg = np.full(16, 1.0 / 16.0)
    neg[0] = -1e-6
    with pytest.raises(InvalidDistribution):
        sample_outcome_indices(neg, 1, rng)
    with pytest.raises(InvalidDistribution):
        sample_outcome_indices(np.full(16, 1.1 / 16.0), 1, rng)


def test_rounding_debris_is_clamped():
    p = np.full(16, 1.0 / 16.0)
    p[0] = -5e-11  # inside the floor, should be treated as zero
    p[1] += 1.0 / 16.0 + 5e-11
    shots = sample_shots(p, 100, RngConfig(seed=7))
    assert all(xi.to_index() != 0 for xi in shots)


def test_negative_shot_count_rejected():
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    with pytest.raises(OutOfRange):
        sample_outcome_indices(np.full(16, 1.0 / 16.0), -1, rng)
    with pytest.raises(OutOfRange):
        sample_indices(np.full(16, 1.0 / 16.0), -1, RngConfig(seed=0, stream_count=4))
    assert sample_shots(np.full(16, 1.0 / 16.0), 0, RngConfig(seed=0)) == []


def test_stream_blocks_merge_in_stream_order():
    p = singlet_optimal_probabilities()
    cfg = RngConfig(seed=99, stream_count=3)
    got = [xi.to_index() for xi in sample_shots(p, 8, cfg)]
    # 8 shots over 3 streams: blocks of 3, 3, 2
    manual = []
    for stream, count in ((0, 3), (1, 3), (2, 2)):
        manual.extend(sample_outcome_indices(p, count, cfg.generator(stream)))
    assert got == manual
    # 10 shots over 10**12 streams: one shot from each of the first 10, and
    # no generator for the rest, which would take about a year to build
    cfg = RngConfig(seed=99, stream_count=10**12)
    manual = [sample_outcome_indices(p, 1, cfg.generator(stream))[0] for stream in range(10)]
    assert sample_indices(p, 10, cfg).tolist() == manual


def test_empirical_frequencies():
    assert np.allclose(
        empirical_frequencies([OUTCOMES[4]] * 10),
        np.eye(16)[4],
    )
    freqs = empirical_frequencies([0, 1] * 50)
    assert freqs[0] == freqs[1] == 0.5
    shots = sample_shots(singlet_optimal_probabilities(), 500, RngConfig(seed=8))
    assert empirical_frequencies(shots).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EmptyShotList):
        empirical_frequencies([])


def test_shot_records_running_mean(root_half_gammas):
    kernel = build_kernel(root_half_gammas)
    shots = sample_shots(singlet_optimal_probabilities(), 100, RngConfig(seed=9))
    records = shot_records(kernel, shots)
    table = single_shot_chsh_table(kernel)
    values = np.array([r.s_single for r in records])
    assert [r.index for r in records] == list(range(1, 101))
    for r, xi in zip(records, shots):
        assert r.xi_prime == xi
        assert r.s_single == table[xi.to_index()]
    running = np.cumsum(values) / np.arange(1, 101)
    assert np.allclose([r.running_mean_S for r in records], running, atol=1e-12)


def test_convergence_report(root_half_gammas):
    kernel = build_kernel(root_half_gammas)
    one = convergence_report(kernel, [OUTCOMES[0]])
    assert one["shots"] == 1
    assert one["sample_std"] is None and one["std_error"] is None
    assert one["mean_S"] == shot_records(kernel, [OUTCOMES[0]])[-1].running_mean_S

    shots = sample_shots(singlet_optimal_probabilities(), 500, RngConfig(seed=10))
    rep = convergence_report(kernel, shots)
    assert rep["shots"] == 500
    assert rep["mean_S"] == pytest.approx(
        ensemble_from_shots(kernel, shots), abs=1e-12
    )
    last_running_mean = shot_records(kernel, shots)[-1].running_mean_S
    assert last_running_mean == pytest.approx(rep["mean_S"], abs=1e-12)
    assert rep["std_error"] == pytest.approx(
        rep["sample_std"] / np.sqrt(500), abs=1e-15
    )
    # equal gammas: every single-shot magnitude is 2 / gamma^2 = 4
    assert abs(rep["mean_S"]) <= 4.0

    with pytest.raises(EmptyShotList):
        convergence_report(kernel, [])


def test_write_shot_csv_roundtrip(tmp_path, root_half_gammas):
    kernel = build_kernel(root_half_gammas)
    shots = sample_shots(singlet_optimal_probabilities(), 20, RngConfig(seed=11))
    records = shot_records(kernel, shots)
    path = tmp_path / "shots.csv"
    write_shot_csv(path, kernel, shots)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SHOT_CSV_HEADER)
    assert len(rows) == 21
    for row, r in zip(rows[1:], records):
        assert int(row[0]) == r.index
        assert tuple(int(c) for c in row[1:5]) == r.xi_prime.as_tuple()
        # %.17g round-trips doubles exactly
        assert float(row[5]) == r.s_single
        assert float(row[6]) == r.running_mean_S


def test_frequencies_shrink_toward_exact():
    p = singlet_optimal_probabilities()
    devs = []
    for n, seed in ((10_000, 21), (1_000_000, 21)):
        shots = sample_shots(p, n, RngConfig(seed=seed))
        devs.append(np.abs(empirical_frequencies(shots) - p).max())
    assert devs[1] < devs[0]


def test_frequency_route_matches_shot_average(root_half_gammas):
    # mean of per-shot values == ensemble value of the inverted frequencies
    kernel = build_kernel(root_half_gammas)
    shots = sample_shots(singlet_optimal_probabilities(), 2000, RngConfig(seed=13))
    freqs = empirical_frequencies(shots)
    via_quasi = ensemble_chsh(invert_distribution(kernel, freqs))
    via_mean = ensemble_from_shots(kernel, shots)
    assert via_quasi == pytest.approx(via_mean, abs=1e-10)


def test_unequal_stream_count_changes_draws():
    p = singlet_optimal_probabilities()
    one = sample_shots(p, 64, RngConfig(seed=5, stream_count=1))
    four = sample_shots(p, 64, RngConfig(seed=5, stream_count=4))
    assert one != four  # stream layout is part of the contract


def test_rng_config_seed_is_unsigned_64_bit():
    with pytest.raises(OutOfRange):
        RngConfig(seed=2**64)
    p = singlet_optimal_probabilities()
    draws = set()
    for seed in (0, 2**63, 2**63 + 1, 2**64 - 1):
        key = RngConfig(seed=seed, stream_count=2).generator(1).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, 1]
        draws.add(tuple(sample_indices(p, 64, RngConfig(seed=seed)).tolist()))
    assert len(draws) == 4


def test_sample_indices_is_the_array_behind_sample_shots():
    p = singlet_optimal_probabilities()
    cfg = RngConfig(seed=12345, stream_count=3)
    idx = sample_indices(p, 301, cfg)
    assert idx.dtype == np.int64 and idx.shape == (301,)
    assert idx.tolist() == [xi.to_index() for xi in sample_shots(p, 301, cfg)]
    empty = sample_indices(p, 0, cfg)
    assert empty.shape == (0,) and empty.dtype == np.int64
    # stream 0 still checks the probabilities when no shot is drawn
    with pytest.raises(InvalidDistribution):
        sample_indices(np.full(16, 1.0 / 32.0), 0, cfg)


def sequential_shot_csv(kernel, indices) -> bytes:
    """Reference: the per-shot loop, total += s and total / i, through csv.writer."""
    table = single_shot_chsh_table(kernel)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(SHOT_CSV_HEADER)
    total = 0.0
    for i, k in enumerate(indices, start=1):
        s = float(table[k])
        total += s
        writer.writerow([i, *OUTCOMES[k].as_tuple(), "%.17g" % s, "%.17g" % (total / i)])
    return buf.getvalue().encode()


# Shot lists whose running mean leaves _fixed_17g's range inside a chunk of
# 7, so those chunks are formatted by %; outcomes 0 and 3 have opposite S.
OUTSIDE_FIXED_RANGE = {
    "zero_mean": [0, 3] * 6 + [5] * 9,  # exactly 0 at rows 2, 4, ..., 12
    "tiny_mean": [0, 1, 2, 3] * 4 + [7] * 5,  # 2.2e-16 at row 4, written with an exponent
}


@pytest.mark.parametrize("case", [6, 7, 8, 23, "zero_mean", "tiny_mean"])
def test_chunked_csv_matches_sequential_loop(tmp_path, monkeypatch, case):
    # chunk 7: n = chunk - 1, chunk, chunk + 1, and several chunks plus a tail
    monkeypatch.setattr(sampler, "CSV_CHUNK", 7)
    # unequal gammas give single-shot values that are not exact in binary
    kernel = build_kernel(GammaSet(0.61, 0.73, 0.55, 0.87))
    if case in OUTSIDE_FIXED_RANGE:
        idx = np.array(OUTSIDE_FIXED_RANGE[case])
    else:
        idx = np.random.default_rng(case).integers(0, 16, case)
    path = tmp_path / "shots.csv"
    write_shot_csv(path, kernel, idx)
    expected = sequential_shot_csv(kernel, idx.tolist())
    assert path.read_bytes() == expected
    # the list view carries the same running means, bit for bit
    rows = list(csv.reader(io.StringIO(expected.decode())))[1:]
    means = [float(r[6]) for r in rows]
    assert [r.running_mean_S for r in shot_records(kernel, idx)] == means
    # these cases, and only these, reach the % fallback
    assert (case in OUTSIDE_FIXED_RANGE) == any(abs(m) < 1e-4 for m in means)


def powers_of_ten_and_neighbours(steps=3):
    """10**k for k = -5..17 and the `steps` doubles on either side of each."""
    values = []
    for k in range(-5, 18):
        below = above = float(f"1e{k}")
        values.append(below)
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [float(below), float(above)]
    return values


def test_fixed_17g_exact_cases():
    # every j / 2**17 is a tie halfway between two 17-digit decimals
    ties = (1.0 + np.arange(2**16) / 2**17).tolist()
    assert fixed_17g_strings(ties) == ["%.17g" % v for v in ties]
    near = powers_of_ten_and_neighbours()
    inside = [s * v for v in near if 1e-4 <= v < 1e16 for s in (1.0, -1.0)]
    # one call: rows of many exponents share a matrix
    assert fixed_17g_strings(inside) == ["%.17g" % v for v in inside]
    for v in near:
        assert (fixed_17g_strings([v]) is None) == (v not in inside)
    for v in (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-5, 1e16, 1e300):
        assert fixed_17g_strings([1.5, v]) is None
