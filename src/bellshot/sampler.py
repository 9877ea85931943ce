"""Finite-shot simulation of the sixteen-outcome joint measurement.

Sampling uses counter-based Philox generators keyed by (seed, stream index), so a run is
reproducible for a fixed seed and stream count and independent streams can be drawn
without coordination. Shots are split into contiguous blocks across streams and merged
back in stream order, which keeps the output deterministic under the same configuration.

A run never holds its shots whole. ShotDraws redraws them from the stream keys, chunk by
chunk, as often as they are read: one pass counts them, sums their single-shot values and
writes their CSV rows, and a second sums the squared deviations from the mean. Each sum
adds the values as numpy's pairwise summation adds the whole array, so the mean and spread
are np.mean's and np.std(ddof=1)'s to the bit. Each step's CSV rows are laid out in one
reused NUL-padded byte matrix, running means through an exact array '%.17g', and written
after one pass drops the NULs. An int64 array of outcome indices is read through the same
passes; sample_shots and shot_records are list-of-object views of it.
"""

from __future__ import annotations

import math

import numpy as np

from . import belltests, linalg, measurement
from .errors import ConsistencyError, EmptyShotList, InvalidDistribution, OutOfRange, fill, record, shown
from .inversion import InversionKernel
from .measurement import OUTCOMES, OutcomeIndex

# [low, high) and kind of every integer input, from a config document, argv or a call:
# checked_integer admits each. Past MAX_SHOTS a running mean's divisor is no longer exact.
INTEGERS = {
    "shots": (0, math.inf, "a nonnegative integer"),
    "seed": (0, 2**64, "an unsigned 64-bit integer"),
    "stream_count": (1, math.inf, "a positive integer"),
    "stream": (0, math.inf, "a nonnegative integer"),
    "trials": (1, math.inf, "a positive integer"),
}
MAX_SHOTS = 2**53
DEFAULT_TRIALS = 25  # validate's trials per check, held here so that the CLI's parser does not import it

# Shots drawn, valued, counted and written per step of a pass, and the largest node of the
# pairwise sum taken whole; at least numpy's pairwise block of 128. It bounds a run's arrays.
SHOT_CHUNK = 2**13
BUCKETS = 4096  # of [0, 1): a draw's bucket gives its outcome unless a cdf entry splits it

SHOT_CSV_HEADER = ("index", "x_prime", "y_prime", "u_prime", "v_prime", "S_single", "running_mean_S")

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
# 0..9999 as 4-byte ASCII words, zero-padded, then again from 10**4 with NUL padding
_PREFIXES = np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
_WORD_BYTES = (_PREFIXES % 10 + ord("0")).astype(np.uint8)
_DIGIT_WORDS = np.concatenate([_WORD_BYTES, _WORD_BYTES * (_PREFIXES > 0)]).view(np.uint32).ravel()
_POINT = np.frombuffer(b"\0" * 20 + b"0.000", np.uint8)  # [15 - x:] leads exponent x's row


def checked_integer(name: str, value, error=OutOfRange) -> int:
    """value as an int, if it is a Python or numpy integer in INTEGERS[name]'s [low, high);
    else error naming name. bool subclasses int, but `"shots": true` is a mistake, not a
    one-shot run, and a float such as 1.5 would key seed 1's stream."""
    low, high, kind = INTEGERS[name]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= int(value) < high):
        raise error(f"{name}: expected {kind}, got {shown(value)}")
    return int(value)


@record
class RngConfig:
    """Reproducibility contract for a sampling run."""

    def __init__(self, seed: int, stream_count: int = 1):
        fill(self, checked_integer("seed", seed), checked_integer("stream_count", stream_count))

    def generator(self, stream: int) -> np.random.Generator:
        stream = checked_integer("stream", stream)
        if stream >= self.stream_count:
            raise OutOfRange(f"stream {stream} outside [0, {self.stream_count})")
        # a plain list would go through float64 for seeds >= 2**63, merging seeds
        key = np.array([self.seed, stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _checked_probabilities(probabilities) -> np.ndarray:
    p = linalg.as_finite(probabilities, (16,), "probabilities", InvalidDistribution)
    low = float(p.min())
    linalg.require(-low, -linalg.PROB_FLOOR,
                   lambda _: InvalidDistribution(f"probability {low!r} below {linalg.PROB_FLOOR}"))
    total = float(p.sum())
    linalg.require(abs(total - 1.0), linalg.PROB_SUM_SLACK,
                   lambda _: InvalidDistribution(f"probabilities sum to {total!r}, not 1"))
    # tiny negatives are rounding debris; clamp and renormalize
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def _bucket_table(p: np.ndarray):
    """The cdf of p, and per bucket [b, b + 1) / BUCKETS the index count(cdf <= u) that
    every u in it draws, or -1 where a cdf entry lies strictly inside and decides."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0  # guard against cumulative rounding at the top
    edges = np.arange(BUCKETS + 1) / BUCKETS
    table = np.searchsorted(cdf, edges[:-1], side="right")
    table[np.searchsorted(cdf, edges[1:]) != table] = -1
    return cdf, table


def _draw(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right"), through _bucket_table's table."""
    idx = table.take((u * BUCKETS).astype(np.intp))  # exact: BUCKETS is a power of two
    split = np.flatnonzero(idx < 0)
    idx[split] = np.searchsorted(cdf, u[split], side="right")
    return idx


class ShotDraws:
    """The n outcome indices drawn from p under config, redrawn from the stream keys
    whenever they are read. Stream s draws a contiguous block, the first n % stream_count
    streams one shot more, and the blocks follow in stream order; a stream that draws
    nothing is never keyed. p and n are checked before any stream is keyed."""

    def __init__(self, probabilities, n, config: RngConfig):
        n = checked_integer("shots", n)
        if n > MAX_SHOTS:
            raise OutOfRange(f"shot count {n} is too many: a running mean's divisor "
                             f"is exact only up to 2**53 = {MAX_SHOTS}")
        self.n = n
        self.cdf, self.table = _bucket_table(_checked_probabilities(probabilities))
        self.config = config

    def _streams(self):
        """(stop, generator) per stream that draws; its block ends before shot stop."""
        base, extra = divmod(self.n, self.config.stream_count)
        stop = 0
        for stream in range(min(self.config.stream_count, self.n)):
            stop += base + (stream < extra)
            yield stop, self.config.generator(stream)

    def reader(self):
        """A fresh pass over the draws: take(start, stop) returns shots start..stop - 1,
        asked for in order, drawn in one rng.random call per stream it spans."""
        streams = self._streams()
        block_stop, rng = 0, None

        def take(start: int, stop: int) -> np.ndarray:
            nonlocal block_stop, rng
            pieces = []
            while start < stop:
                if start == block_stop:
                    block_stop, rng = next(streams)
                k = min(stop, block_stop) - start
                pieces.append(_draw(self.cdf, self.table, rng.random(k)))
                start += k
            return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

        return take


class _HeldShots:
    """An outcome list or array, read through the same passes as ShotDraws."""

    def __init__(self, shots):
        self.indices = measurement.as_indices(shots)
        self.n = len(self.indices)

    def reader(self):
        return lambda start, stop: self.indices[start:stop]


def _source(shots):
    return shots if isinstance(shots, ShotDraws) else _HeldShots(shots)


def _pairwise(start: int, stop: int, leaf) -> float:
    """Values start..stop - 1 summed as np.add.reduce sums them whole, from leaf(a, b),
    np.add.reduce of values a..b - 1. numpy's pairwise summation (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2) splits a node of more than 128 values
    at half its length rounded down to a multiple of 8 and adds the halves' sums; here a
    node of at most SHOT_CHUNK values is summed whole, and leaves come in order."""
    n = stop - start
    if n <= SHOT_CHUNK:
        return leaf(start, stop)
    mid = start + n // 2 - n // 2 % 8
    return _pairwise(start, mid, leaf) + _pairwise(mid, stop, leaf)


def _tally(shots, values, sink=None):
    """One pass over a source's shots in _pairwise's leaves: the count of each outcome,
    and values(idx) summed as np.add.reduce sums it over all the shots. sink(start, idx, v)
    sees each leaf's shots and values, in order."""
    take = shots.reader()
    counts = np.zeros(16, np.int64)

    def leaf(start: int, stop: int) -> float:
        idx = take(start, stop)
        counts[:] += np.bincount(idx, minlength=16)
        v = values(idx)
        if sink is not None:
            sink(start, idx, v)
        return float(np.add.reduce(v))

    return counts, _pairwise(0, shots.n, leaf) if shots.n else 0.0


def sample_indices(probabilities, n: int, config: RngConfig) -> np.ndarray:
    """ShotDraws(probabilities, n, config) as one int64 array. The draws are checked
    before any stream is keyed; a count numpy cannot hold raises OutOfRange."""
    draws = ShotDraws(probabilities, n, config)
    try:
        out = np.empty(draws.n, np.int64)
    except (ValueError, MemoryError) as exc:
        raise OutOfRange(f"shot count {n} is too many: {exc}") from None
    take = draws.reader()
    for start in range(0, draws.n, SHOT_CHUNK):
        stop = min(start + SHOT_CHUNK, draws.n)
        out[start:stop] = take(start, stop)
    return out


def sample_shots(probabilities, n: int, config: RngConfig) -> list[OutcomeIndex]:
    """sample_indices as a list of OutcomeIndex."""
    return [OUTCOMES[i] for i in sample_indices(probabilities, n, config).tolist()]


def _running_sums(values: np.ndarray, total: float = 0.0) -> np.ndarray:
    """Partial sums after a carried-in total, added in the order a loop doing
    `total += s` adds them, so chunked running means agree bit for bit."""
    return np.cumsum(np.concatenate(([total], values)))[1:]


@record
class ShotRecord:
    """One row of a run: 1-based shot index, signs, and CHSH values."""

    def __init__(self, index: int, xi_prime: OutcomeIndex, s_single: float, running_mean_S: float):
        fill(self, index, xi_prime, s_single, running_mean_S)


def shot_records(kernel: InversionKernel, outcomes) -> list[ShotRecord]:
    """The rows write_shot_csv writes, as a list of ShotRecord."""
    idx = measurement.as_indices(outcomes)
    values = belltests.single_shot_chsh_table(kernel)[idx]
    means = _running_sums(values) / np.arange(1, len(idx) + 1)
    rows = zip(idx.tolist(), values.tolist(), means.tolist())
    return [ShotRecord(i, OUTCOMES[k], s, m) for i, (k, s, m) in enumerate(rows, start=1)]


def empirical_frequencies(outcomes) -> np.ndarray:
    """Relative frequency of each of the 16 outcomes in a shot list."""
    idx = measurement.as_indices(outcomes)
    if len(idx) == 0:
        raise EmptyShotList("cannot take frequencies of zero shots")
    return np.bincount(idx, minlength=16) / len(idx)


def stream_summary(table: np.ndarray, shots, csv=None) -> tuple[np.ndarray, dict]:
    """The outcome counts of shots, a ShotDraws or an outcome list, and convergence_report's
    dict, for table, the 16 single-shot CHSH values that single_shot_chsh_table checked. One
    pass counts the shots, sums their single-shot values and, given csv (a binary file the
    caller opened), writes write_shot_csv's rows to it; a second pass reads the shots again
    to sum the squared deviations from the mean, and raises ConsistencyError if its counts
    differ. With one shot the spread and standard error are reported as absent. A table
    that is not 16 finite numbers raises OutOfRange."""
    table = linalg.as_finite(table, (16,), "single-shot CHSH table")
    shots = _source(shots)
    if shots.n == 0:
        raise EmptyShotList("cannot summarize zero shots")
    counts, total = _tally(shots, table.take, None if csv is None else _csv_rows(csv, table, shots.n))
    mean = total / shots.n
    std = None
    if shots.n > 1:
        recounts, squares = _tally(shots, lambda idx: np.square(table.take(idx) - mean))
        if not np.array_equal(recounts, counts):
            raise ConsistencyError(f"a second pass over the shots counted {recounts.tolist()} "
                                   f"outcomes, the first {counts.tolist()}")
        std = math.sqrt(squares / (shots.n - 1))
    return counts, {
        "shots": shots.n,
        "mean_S": mean,
        "sample_std": std,
        "std_error": std / math.sqrt(shots.n) if std is not None else None,
    }


def convergence_report(kernel: InversionKernel, shots) -> dict:
    """Mean, spread, and standard error of the single-shot CHSH values: np.mean and
    np.std(ddof=1) of them to the bit, so the mean is exactly ensemble_from_shots on the
    same data; with one shot the spread and standard error are reported as absent."""
    return stream_summary(belltests.single_shot_chsh_table(kernel), shots)[1]


def _ascii(n: np.ndarray, words: int) -> np.ndarray:
    """Each n >= 1 as ASCII digits right-aligned in that many 4-byte words, leading zeros NUL."""
    groups = np.empty((len(n), words), np.int64)
    for j in reversed(range(words)):
        high = n // 10**4  # numpy divides by a scalar fast, but not in % or divmod
        n, groups[:, j] = high, n - high * 10**4 + (high == 0) * 10**4
    return _DIGIT_WORDS.take(groups).view(np.uint8)


def _scaled(a: np.ndarray, x) -> np.ndarray:
    """a * 10**(16 - x) rounded half to even: Dekker's two-product (Numer. Math. 18, 1971)
    is exactly hi + lo, and with 17 digits hi >= 2**53 is even, so rint(lo) rounds as dtoa."""
    p = _POW10[16 - x]
    hi = a * p
    # Veltkamp's split into halves of at most 26 bits each; 134217729 = 2**27 + 1
    ah, ph = (134217729.0 * v - (134217729.0 * v - v) for v in (a, p))
    al, pl = a - ah, p - ph
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_17g(m: np.ndarray, out=None) -> np.ndarray:
    """'%.17g' % v for each v of m, right-aligned in NUL-padded rows of a (len(m), 24) uint8
    matrix, out if given. Entries with |v| outside [1e-4, 1e16), which %g writes with an
    exponent, as 0 or not finite, go one by one through _percent_17g; the rest are laid out
    in arrays. Values of one decimal exponent, as a long run's means, share one scalar
    scale: IEEE 754 rounds scalar and array doubles alike."""
    chars = np.empty((len(m), 24), np.uint8) if out is None else out
    a = np.abs(m)
    inside = (1e-4 <= a) & (a < 1e16)  # NaN fails both
    whole = inside.all()
    if not whole:
        chars[~inside] = _percent_17g(m[~inside])
        m, a = m[inside], a[inside]
    if not len(m):
        return chars
    first, last = np.floor(np.log10([a.min(), a.max()])).astype(np.int64)  # exponent, or one off
    x = first if first == last else np.floor(np.log10(a)).astype(np.int64)
    n = _scaled(a, x)
    if n.min() < 10**16 or n.max() >= 10**17:
        x = x + (n >= 10**17) - (n < 10**16)
        n = _scaled(a, x)  # now every row holds its 17 significant digits
    digits = _ascii(n, 5)  # 20 columns: 2 sign, 3 + j digit j
    digits[:, 2] = (m < 0) * ord("-")
    fixed = chars if whole else np.empty((len(m), 24), np.uint8)
    fixed[:, 0] = 0  # a fixed-notation text is at most 23 bytes, laid out in text
    text = fixed[:, 1:]
    for e in range(np.min(x), np.max(x) + 1):
        rows = np.flatnonzero(x == e) if np.ndim(x) else slice(None)
        s, f = 4 + min(e, 0), 7 + max(e, -1)  # the sign's column and the fraction's first
        text[rows, :f] = _POINT[15 - e:15 - e + f]
        text[rows, s:s + f - 5] = digits[rows, 2:f - 3]
        text[rows, f:] = digits[rows, f - 3:]
    zero = np.flatnonzero(digits[:, 19] == ord("0"))  # the rows with trailing zeros
    trailing = np.argmax(digits[zero, :2:-1] != ord("0"), axis=1)
    fraction = 16 - (x[zero] if np.ndim(x) else x)  # digits after the point
    drop = np.minimum(trailing, fraction) + (trailing >= fraction)  # and a bare point
    text[zero] *= np.arange(23) < 23 - drop[:, None]
    if not whole:
        chars[inside] = fixed
    return chars


def _percent_17g(m: np.ndarray) -> np.ndarray:
    """'%.17g' % v per v of m, right-aligned in NUL-padded rows 24 wide, enough for any double."""
    return np.array([(b"%.17g" % v).rjust(24, b"\0") for v in m.tolist()]).view(np.uint8).reshape(-1, 24)


def _csv_rows(fh, table: np.ndarray, n: int):
    """Write the header to fh, and return a _tally sink that writes each leaf's rows of n
    after it, through one NUL-padded byte matrix of SHOT_CHUNK rows compacted in one pass:
    index, ",x,y,u,v,S," stem, running mean and CRLF."""
    stems = [b",%d,%d,%d,%d,%.17g," % (*xi.as_tuple(), s) for xi, s in zip(OUTCOMES, table.tolist())]
    stem_chars = np.array(stems, f"S{max(map(len, stems))}").view(np.uint8).reshape(16, -1)
    fh.write(",".join(SHOT_CSV_HEADER).encode() + b"\r\n")
    i = (len(str(n)) + 3) // 4 * 4  # the index's columns; the running mean's are the last 24
    total, buf = 0.0, np.zeros((min(SHOT_CHUNK, n), i + stem_chars.shape[1] + 26), np.uint8)
    buf[:, -2:] = np.frombuffer(b"\r\n", np.uint8)

    def write(start: int, idx: np.ndarray, values: np.ndarray) -> None:
        nonlocal total
        sums = _running_sums(values, total)
        total = sums[-1]
        numbers = np.arange(start + 1, start + len(idx) + 1)
        rows = buf[:len(idx)]
        rows[:, :i] = _ascii(numbers, i // 4)
        rows[:, i:-26] = stem_chars.take(idx, axis=0)
        _fixed_17g(sums / numbers, rows[:, -26:-2])
        fh.write(rows[rows != 0])

    return write


def write_shot_csv(path, kernel: InversionKernel, shots) -> None:
    """Write one CSV row per shot: 1-based index, signs as +-1 integers,
    single-shot S and running mean at full precision, CRLF line ends. The shots,
    a ShotDraws or an outcome list, are checked before path is opened."""
    shots = _source(shots)
    table = belltests.single_shot_chsh_table(kernel)
    with open(path, "wb") as fh:
        _tally(shots, table.take, _csv_rows(fh, table, shots.n))
