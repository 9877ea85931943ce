"""Philox-keyed sampling, shot records, and convergence summaries."""

import csv
import io
import math
from statistics import NormalDist

import numpy as np
import pytest

from bellshot import (
    ConsistencyError,
    EmptyShotList,
    GammaSet,
    InvalidDistribution,
    OUTCOMES,
    OutOfRange,
    RngConfig,
    build_kernel,
    chsh_optimal_angles,
    convergence_report,
    empirical_frequencies,
    ensemble_chsh,
    ensemble_from_shots,
    invert_distribution,
    joint_povm,
    observed_statistics,
    s_of_xi,
    sample_indices,
    sample_shots,
    shot_records,
    single_shot_chsh_table,
    write_shot_csv,
)
from bellshot import sampler
from bellshot.sampler import MAX_SHOTS, SHOT_CSV_HEADER, ShotDraws, stream_summary
from bellshot.states import bell_state, werner_state
from conftest import ROOT_HALF, fixed_17g_strings, sampling_cdf


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
    cfg = RngConfig(seed=0)
    with pytest.raises(InvalidDistribution):
        sample_indices(np.full(15, 1.0 / 15.0), 1, cfg)
    bad = np.full(16, 1.0 / 16.0)
    bad[3] = np.nan
    with pytest.raises(InvalidDistribution):
        sample_indices(bad, 1, cfg)
    neg = np.full(16, 1.0 / 16.0)
    neg[0] = -1e-6
    with pytest.raises(InvalidDistribution):
        sample_indices(neg, 1, cfg)
    with pytest.raises(InvalidDistribution):
        sample_indices(np.full(16, 1.1 / 16.0), 1, cfg)


def test_rounding_debris_is_clamped():
    p = np.full(16, 1.0 / 16.0)
    p[0] = -5e-11  # inside the floor, should be treated as zero
    p[1] += 1.0 / 16.0 + 5e-11
    shots = sample_shots(p, 100, RngConfig(seed=7))
    assert all(xi.to_index() != 0 for xi in shots)


def test_negative_shot_count_rejected():
    for stream_count in (1, 4):
        with pytest.raises(OutOfRange):
            sample_indices(np.full(16, 1.0 / 16.0), -1, RngConfig(seed=0, stream_count=stream_count))
    assert sample_shots(np.full(16, 1.0 / 16.0), 0, RngConfig(seed=0)) == []


# counts of 2**60 and up are refused by numpy before it allocates anything
@pytest.mark.parametrize("n", [1.5, "10", True, np.float64(3.0), 2**60, 10**23])
def test_shot_count_must_be_an_integer_numpy_can_hold(n):
    with pytest.raises(OutOfRange, match="shot count"):
        sample_indices(np.full(16, 1.0 / 16.0), n, RngConfig(seed=0, stream_count=4))


def test_stream_blocks_merge_in_stream_order():
    p = singlet_optimal_probabilities()
    cfg = RngConfig(seed=99, stream_count=3)
    got = [xi.to_index() for xi in sample_shots(p, 8, cfg)]
    cdf = sampling_cdf(p)
    # 8 shots over 3 streams: blocks of 3, 3, 2
    manual = []
    for stream, count in ((0, 3), (1, 3), (2, 2)):
        manual.extend(np.searchsorted(cdf, cfg.generator(stream).random(count), side="right"))
    assert got == manual
    # 10 shots over 10**12 streams: one shot from each of the first 10, and
    # no generator for the rest, which would take about a year to build
    cfg = RngConfig(seed=99, stream_count=10**12)
    manual = [np.searchsorted(cdf, cfg.generator(stream).random(1), side="right")[0] for stream in range(10)]
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


@pytest.mark.parametrize("shots", [[True, False, True], np.array([True, False, True]),
                                   [0, np.True_, 2]], ids=["list", "array", "numpy_bool_item"])
def test_boolean_shots_are_refused(root_half_gammas, shots):
    # True and False would otherwise count as outcomes 1 and 0
    kernel = build_kernel(root_half_gammas)
    with pytest.raises(OutOfRange, match="booleans"):
        empirical_frequencies(shots)
    with pytest.raises(OutOfRange, match="booleans"):
        convergence_report(kernel, shots)


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


@pytest.mark.parametrize("args", [(1.5,), (True,), (np.float64(1.0),), ("1",), (None,),
                                  (1, 2.5), (1, False), (1, np.True_)])
def test_rng_config_takes_only_integers(args):
    with pytest.raises(OutOfRange, match="must be an integer"):
        RngConfig(*args)


@pytest.mark.parametrize("stream", [1.5, True, np.float64(1.0), "abc", None])
def test_generator_takes_only_integer_streams(stream):
    # 1.5 and True would otherwise key stream 1's generator
    with pytest.raises(OutOfRange, match="stream must be an integer"):
        RngConfig(5, 3).generator(stream)
    key = RngConfig(5, 3).generator(np.int8(1)).bit_generator.state["state"]["key"]
    assert key.tolist() == [5, 1]


def test_rng_config_takes_numpy_integers_as_ints():
    cfg = RngConfig(np.uint64(2**64 - 1), np.int8(3))
    assert (type(cfg.seed), type(cfg.stream_count)) == (int, int)
    p = singlet_optimal_probabilities()
    assert np.array_equal(sample_indices(p, 64, cfg), sample_indices(p, 64, RngConfig(2**64 - 1, 3)))


def test_sample_indices_is_the_array_behind_sample_shots():
    p = singlet_optimal_probabilities()
    cfg = RngConfig(seed=12345, stream_count=3)
    idx = sample_indices(p, 301, cfg)
    assert idx.dtype == np.int64 and idx.shape == (301,)
    assert idx.tolist() == [xi.to_index() for xi in sample_shots(p, 301, cfg)]
    assert np.array_equal(sample_indices(p, np.int32(301), cfg), idx)
    empty = sample_indices(p, 0, cfg)
    assert empty.shape == (0,) and empty.dtype == np.int64
    # stream 0 still checks the probabilities when no shot is drawn
    with pytest.raises(InvalidDistribution):
        sample_indices(np.full(16, 1.0 / 32.0), 0, cfg)


def sequential_shot_csv(kernel, indices, start=1) -> bytes:
    """Reference: the per-shot loop, total += s and total / i, through csv.writer; shots
    are numbered from start."""
    table = single_shot_chsh_table(kernel)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(SHOT_CSV_HEADER)
    total = 0.0
    for i, k in enumerate(indices, start=start):
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


@pytest.mark.parametrize("chunk", [sampler.CSV_CHUNK, 7])
def test_index_gains_a_digit_inside_a_chunk(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(sampler, "CSV_CHUNK", chunk)
    kernel = build_kernel(GammaSet(0.61, 0.73, 0.55, 0.87))
    # shot 10**4 falls inside a chunk of either size, not at its edge
    idx = np.random.default_rng(14).integers(0, 16, 10**4 + 50)
    path = tmp_path / "shots.csv"
    write_shot_csv(path, kernel, idx)
    assert path.read_bytes() == sequential_shot_csv(kernel, idx.tolist())
    # shots 10**5 and 10**6 through the sink write_shot_csv feeds, a leaf started 10 below
    table = single_shot_chsh_table(kernel)
    for power in (5, 6):
        fh = io.BytesIO()
        sampler._csv_rows(fh, table, 10**power + 10)(10**power - 10, idx[:20], table[idx[:20]])
        assert fh.getvalue() == sequential_shot_csv(kernel, idx[:20].tolist(), start=10**power - 9)


def test_one_decade_is_scaled_by_one_scalar(monkeypatch):
    calls = []
    scaled = sampler._scaled
    monkeypatch.setattr(sampler, "_scaled", lambda a, x: calls.append(np.ndim(x)) or scaled(a, x))
    values = [2.5, -2.25, 2.0, 9.75, 3.0000000000000004]
    assert fixed_17g_strings(values) == ["%.17g" % v for v in values]
    assert calls == [0]
    calls.clear()
    values = [0.5, 5.0, 50.0]  # three exponents: one per row
    assert fixed_17g_strings(values) == ["%.17g" % v for v in values]
    assert calls == [1]


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


def searchsorted_indices(probabilities, n, cfg):
    """Reference: each stream's block drawn in one call and located by searchsorted."""
    base, extra = divmod(n, cfg.stream_count)
    blocks = [cfg.generator(s).random(base + (s < extra)) for s in range(min(cfg.stream_count, n))]
    return np.searchsorted(sampling_cdf(probabilities), np.concatenate([[], *blocks]), side="right").astype(np.int64)


# lengths either side of 8, 128, the patched SHOT_CHUNK (136), its pairwise splits and
# CSV_CHUNK (7); over 1, 3 and 7 streams their blocks end everywhere in between
STREAM_LENGTHS = [1, 2, 7, 8, 9, 15, 127, 128, 129, 135, 136, 137, 271, 272, 273, 1000, 2177]


@pytest.mark.parametrize("stream_count", [1, 3, 7])
@pytest.mark.parametrize("n", STREAM_LENGTHS)
def test_streamed_passes_equal_the_in_memory_reference(tmp_path, monkeypatch, n, stream_count):
    monkeypatch.setattr(sampler, "SHOT_CHUNK", 136)
    monkeypatch.setattr(sampler, "CSV_CHUNK", 7)
    kernel = build_kernel(GammaSet(0.61, 0.73, 0.55, 0.87))  # values not exact in binary
    p = singlet_optimal_probabilities()
    cfg = RngConfig(seed=2024, stream_count=stream_count)
    idx = searchsorted_indices(p, n, cfg)
    path = tmp_path / "shots.csv"
    with open(path, "wb") as fh:
        counts, report = stream_summary(kernel, ShotDraws(p, n, cfg), fh)
    assert path.read_bytes() == sequential_shot_csv(kernel, idx.tolist())
    values = single_shot_chsh_table(kernel)[idx]
    std = float(np.std(values, ddof=1)) if n > 1 else None
    assert report == {"shots": n, "mean_S": float(np.mean(values)), "sample_std": std,
                      "std_error": std / float(np.sqrt(n)) if n > 1 else None}
    assert counts.tolist() == np.bincount(idx, minlength=16).tolist()
    assert np.array_equal(sample_indices(p, n, cfg), idx)
    # an array reads through the same passes
    held_counts, held_report = stream_summary(kernel, idx)
    assert held_counts.tolist() == counts.tolist() and held_report == report


def pairwise_lengths(top, count):
    """Lengths around 8, 128, 136 and powers of two up to top, top itself, and count random."""
    edges = [8, 128, 136] + [2**k for k in range(8, top.bit_length())]
    fixed = [e + d for e in edges for d in (-1, 0, 1)] + [1, 2, top]
    return sorted(set(fixed + np.random.default_rng(53).integers(129, top, count).tolist()))


# the shipped chunk up to 3e6 shots; a small one, with many more leaves, on shorter lengths
@pytest.mark.parametrize("chunk,lengths", [(2**16, pairwise_lengths(3_000_000, 20)),
                                           (136, pairwise_lengths(20_000, 20))], ids=["2**16", "136"])
def test_pairwise_tree_is_numpys_sum_bit_for_bit(monkeypatch, chunk, lengths):
    monkeypatch.setattr(sampler, "SHOT_CHUNK", chunk)
    assert len(lengths) >= 50
    rng = np.random.default_rng(0)
    values = rng.standard_normal(max(lengths)) * 10.0 ** rng.uniform(-8, 8, max(lengths))
    left_to_right_differs = 0
    for n in lengths:
        x = values[:n]
        sums, starts = [], [0]

        def leaf(a, b):
            assert a == starts[-1] and b - a <= chunk  # leaves come in order, none too long
            starts.append(b)
            sums.append(float(np.add.reduce(x[a:b])))
            return sums[-1]

        assert sampler._pairwise(0, n, leaf) == float(np.add.reduce(x)), n
        assert starts[-1] == n
        # adding the leaf sums left to right would not do: the tree decides the bits
        left_to_right_differs += sum(sums) != float(np.add.reduce(x))
    assert left_to_right_differs > 0


def bucket_probes(cdf):
    """Every cdf entry, every bucket edge, and the doubles on either side of each, in [0, 1)."""
    points = np.concatenate([cdf, np.arange(sampler.BUCKETS + 1) / sampler.BUCKETS])
    probes = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
    return probes[(probes >= 0.0) & (probes < 1.0)]


# normalized, [0.7, 0.2, 0.1] adds up to 1.0000000000000002 after its third entry
BUCKET_CASES = {
    "singlet": singlet_optimal_probabilities(),
    "zeros": np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.125, 0.0] + [0.0] * 7 + [0.125]),
    "past_one": np.array([0.7, 0.2, 0.1] + [0.0] * 13),
    "random": np.random.default_rng(7).dirichlet(np.full(16, 0.3)),
}


@pytest.mark.parametrize("case", sorted(BUCKET_CASES))
def test_bucket_draw_is_searchsorted(case):
    cdf, table = sampler._bucket_table(sampler._checked_probabilities(BUCKET_CASES[case]))
    if case == "past_one":
        assert cdf[2] > 1.0 and cdf[-1] == 1.0
    u = np.concatenate([bucket_probes(cdf), np.random.default_rng(1).random(100_000)])
    assert np.array_equal(sampler._draw(cdf, table, u), np.searchsorted(cdf, u, side="right"))
    assert (table < 0).sum() <= 15  # at most one bucket per inner cdf entry is left to searchsorted


def test_second_pass_that_counts_other_shots_raises(root_half_gammas):
    kernel = build_kernel(root_half_gammas)
    p = singlet_optimal_probabilities()
    draws = ShotDraws(p, 1000, RngConfig(seed=1))
    readers = iter([draws.reader(), ShotDraws(p, 1000, RngConfig(seed=2)).reader()])
    draws.reader = lambda: next(readers)
    with pytest.raises(ConsistencyError, match="second pass"):
        stream_summary(kernel, draws)


def test_shot_bound_is_two_to_the_53():
    p = singlet_optimal_probabilities()
    with pytest.raises(OutOfRange, match=f"shot count {MAX_SHOTS + 1} is too many"):
        ShotDraws(p, MAX_SHOTS + 1, RngConfig(seed=5))
    with pytest.raises(OutOfRange, match="is too many"):
        sample_indices(p, MAX_SHOTS + 1, RngConfig(seed=5))
    # 2**53 is admitted and drawn lazily: the first chunk is stream 0's first draws
    take = ShotDraws(p, MAX_SHOTS, RngConfig(seed=5)).reader()
    first = take(0, sampler.SHOT_CHUNK)
    assert np.array_equal(first, sample_indices(p, sampler.SHOT_CHUNK, RngConfig(seed=5)))


# Sampling statistics at configs and seeds fixed in advance. Over the family of
# 2 * len(STAT_CONFIGS) * len(STAT_SEEDS) tests, a false alarm has probability at most
# FAMILY_ALPHA (Bonferroni). Pearson's X^2 over d + 1 outcomes is asymptotically chi^2_d,
# and P(chi^2_d >= d + 2 sqrt(d t) + 2 t) <= exp(-t) (Laurent and Massart, Ann. Statist.
# 28, 1302 (2000), Lemma 1); z is asymptotically standard normal.
FAMILY_ALPHA = 1e-6
STAT_SHOTS = 200_000
STAT_SEEDS = (11, 12, 13)
STAT_CONFIGS = {
    "singlet_root_half": (bell_state("psi_minus"), GammaSet.equal(ROOT_HALF)),
    "singlet_unequal": (bell_state("psi_minus"), GammaSet(0.6, 0.7, 0.55, 0.8)),
    "werner_0.8": (werner_state(0.8), GammaSet.equal(0.7)),
    "phi_plus_0.5": (bell_state("phi_plus"), GammaSet.equal(0.5)),
}
STAT_TEST_ALPHA = FAMILY_ALPHA / (2 * len(STAT_CONFIGS) * len(STAT_SEEDS))


def sampling_alarms(kernel, p_drawn, p_expected, seed):
    """Which of the chi-square and z tests reject draws from p_drawn as draws from p_expected."""
    counts, report = stream_summary(kernel, ShotDraws(p_drawn, STAT_SHOTS, RngConfig(seed, 3)))
    support = p_expected > 0
    assert not counts[~support].any()
    expected = STAT_SHOTS * p_expected[support]
    chi2 = float(((counts[support] - expected) ** 2 / expected).sum())
    d, t = int(support.sum()) - 1, math.log(1.0 / STAT_TEST_ALPHA)
    table = single_shot_chsh_table(kernel)
    exact_S = ensemble_chsh(invert_distribution(kernel, p_expected))
    sigma = math.sqrt(float(p_expected @ table**2) - exact_S**2)
    z = (report["mean_S"] - exact_S) * math.sqrt(STAT_SHOTS) / sigma
    return {"chi2": chi2 > d + 2 * math.sqrt(d * t) + 2 * t,
            "z": abs(z) > NormalDist().inv_cdf(1 - STAT_TEST_ALPHA / 2)}


def stat_config(name):
    state, gammas = STAT_CONFIGS[name]
    kernel = build_kernel(gammas)
    return kernel, observed_statistics(state, joint_povm(chsh_optimal_angles(), gammas))


@pytest.mark.parametrize("seed", STAT_SEEDS)
@pytest.mark.parametrize("name", sorted(STAT_CONFIGS))
def test_sampled_counts_and_mean_fit_the_exact_distribution(name, seed):
    kernel, p = stat_config(name)
    assert sampling_alarms(kernel, p, p, seed) == {"chi2": False, "z": False}


def test_spread_closed_form_at_equal_gammas():
    kernel, p = stat_config("singlet_root_half")
    table = single_shot_chsh_table(kernel)
    exact_S = ensemble_chsh(invert_distribution(kernel, p))
    assert float(p @ table**2) - exact_S**2 == pytest.approx(4 / ROOT_HALF**4 - exact_S**2, rel=1e-12)


@pytest.mark.parametrize("name", sorted(STAT_CONFIGS))
def test_swapping_two_probabilities_sets_off_the_chi_square_alarm(name):
    kernel, p = stat_config(name)
    swapped = p.copy()
    swapped[[p.argmin(), p.argmax()]] = p[[p.argmax(), p.argmin()]]
    assert sampling_alarms(kernel, swapped, p, STAT_SEEDS[0])["chi2"]
