"""Finite-shot simulation of the sixteen-outcome joint measurement.

Sampling uses counter-based Philox generators keyed by (seed, stream index), so a run is
reproducible for a fixed seed and stream count and independent streams can be drawn
without coordination. Shots are split into contiguous blocks across streams and merged
back in stream order, which keeps the output deterministic under the same configuration.

A run never holds its shots whole. ShotDraws redraws them from the stream keys, chunk by
chunk, as often as they are read: one pass counts them, sums their single-shot values and
writes their CSV rows, and a second sums the squared deviations from the mean. Each sum
adds the values as numpy's pairwise summation adds the whole array, so the mean and spread
are np.mean's and np.std(ddof=1)'s to the bit. Each step's CSV rows are laid out in 4-byte
words of one reused NUL-padded matrix and written after one pass drops the NULs: the index
from a word table, the outcome's stem by one take, the running means through an exact array
'%.17g' that splits each 17-digit integer once into digit words, in place in the matrix. The
sink allocates its large arrays once, so that the heap top is not trimmed and faulted back in
step after step. csv_lines lays out a batch of a sweep's rows in the same words.
An int64 array of outcome indices is read through the same passes; sample_shots and
shot_records are list-of-object views of it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import belltests, linalg, measurement
from .errors import (ConsistencyError, EmptyShotList, InvalidDistribution, OutOfRange, checked_instance, fill,
                     record, shown)
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
_WORD = np.dtype("<u4")  # 4 text bytes, little-endian on any host: the first is the low byte


def _word_tables():
    """0..9999 as 4-byte ASCII words: zero-padded, then again with leading zeros NUL (the
    digit words, the second half from 10**4); zero-padded with trailing zeros NUL (the trimmed
    words); and with leading zeros NUL, then again zero-padded (the shot index's low words)."""
    d = np.arange(10, dtype=np.uint8)
    digits = np.stack(np.broadcast_arrays(*np.ix_(d, d, d, d)), axis=-1).reshape(-1, 4)  # row g: g
    leading, trailing = digits > 0, digits > 0  # whether a digit not 0 comes at or before, at or after
    for j in range(1, 4):
        leading[:, j] |= leading[:, j - 1]
        trailing[:, 3 - j] |= trailing[:, 4 - j]
    chars = digits + ord("0")

    def words(*tables):
        return np.concatenate(tables).view(_WORD).ravel()

    return words(chars, chars * leading), words(chars * trailing), words(chars * leading, chars)


_DIGIT_WORDS, _TRIMMED_WORDS, _INDEX_WORDS = _word_tables()


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
        self.edges = np.append(0.0, self.cdf)  # outcome i draws the u in [edges[i], edges[i + 1])
        self.config = checked_instance(config, RngConfig, "config")

    def _streams(self):
        """(stop, generator) per stream that draws; its block ends before shot stop."""
        base, extra = divmod(self.n, self.config.stream_count)
        stop = 0
        for stream in range(min(self.config.stream_count, self.n)):
            stop += base + (stream < extra)
            yield stop, self.config.generator(stream)

    def reader(self):
        """A fresh pass over the draws: take(start, stop) returns shots start..stop - 1,
        asked for in order, drawn in one rng.random call per stream it spans. Each draw is
        checked against the cdf, cdf[idx - 1] <= u < cdf[idx] with cdf[-1] read as 0,
        apart from _draw's table: ConsistencyError names the first shot outside its interval."""
        streams = self._streams()
        block_stop, rng = 0, None

        def take(start: int, stop: int) -> np.ndarray:
            nonlocal block_stop, rng
            pieces = []
            while start < stop:
                if start == block_stop:
                    block_stop, rng = next(streams)
                k = min(stop, block_stop) - start
                u = rng.random(k)
                idx = _draw(self.cdf, self.table, u)
                # True, which fails linalg.require's gap <= False, where u lies outside its
                # outcome's interval; an index outside 0..15 is clipped to an empty one
                low, high = self.edges.take(idx, mode="clip"), self.edges.take(idx + 1, mode="clip")
                linalg.require((u < low) | (u >= high), False, lambda j: ConsistencyError(
                    f"shot {start + j[0] + 1} drew outcome {idx[j]} at u = {float(u[j])!r}, "
                    f"outside its cdf interval [{float(low[j])!r}, {float(high[j])!r})"))
                pieces.append(idx)
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


def _running_sums(values: np.ndarray, total: float = 0.0, out=None) -> np.ndarray:
    """Partial sums after a carried-in total, added in the order a loop doing
    `total += s` adds them, so chunked running means agree bit for bit; laid out after
    total in out, len(values) + 1 doubles, if given."""
    sums = np.empty(len(values) + 1) if out is None else out
    sums[0], sums[1:] = total, values
    return np.cumsum(sums, out=sums)[1:]


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
    """Mean, spread, and standard error of the single-shot CHSH values of shots: np.mean
    and np.std(ddof=1) of them to the bit; with one shot the spread and standard error are
    reported as absent."""
    return stream_summary(belltests.single_shot_chsh_table(kernel), shots)[1]


class _Work:
    """Work arrays by name, each allocated at its first use, for at least length entries along
    its last axis, and reused by every later use it holds. A sink lays out every leaf in one
    _Work: arrays allocated and freed per leaf would have glibc trim the heap top and fault
    its pages back in, leaf after leaf."""

    def __init__(self, length: int = 0):
        self.length, self.arrays = length, {}

    def __call__(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of shape in name's memory, whose contents are left as found."""
        size = math.prod(shape)
        if name not in self.arrays or self.arrays[name].size < size:
            self.arrays[name] = np.empty(size // max(shape[-1], 1) * max(shape[-1], self.length), dtype)
        return self.arrays[name][:size].reshape(shape)


def _ascii(n: np.ndarray, digits: np.ndarray, trimmed: int, work: _Work) -> np.ndarray:
    """Write the digits of each n in [10**16, 10**17) into digits, a (5, len(n)) array
    of 4-byte ASCII words, and return it: row 0 the leading digit NUL-padded, rows 1-4 the
    groups of four after it, the last trimmed of them with their trailing zeros NUL. n is
    split once, by // 10**16 and into two 8-digit halves, which int32 takes apart."""
    group, rest = work("group", n.shape, np.intp), work("rest", n.shape, np.int64)
    halves, fours = work("halves", (2, len(n)), np.int32), work("fours", (2, len(n)), np.int32)

    def look_up(j: int, row: np.ndarray) -> None:
        group[:] = row
        (_TRIMMED_WORDS if j > 4 - trimmed else _DIGIT_WORDS).take(group, out=digits[j])

    np.floor_divide(n, 10**16, out=group)
    np.subtract(n, np.multiply(group, 10**16, out=rest), out=rest)
    look_up(0, np.add(group, 10**4, out=group))
    halves[0] = np.floor_divide(rest, 10**8, out=group)
    np.subtract(rest, np.multiply(group, 10**8, out=group), out=halves[1])
    np.floor_divide(halves, 10**4, out=fours)
    look_up(1, fours[0])
    look_up(3, fours[1])
    np.subtract(halves, np.multiply(fours, 10**4, out=fours), out=halves)
    look_up(2, halves[0])
    look_up(4, halves[1])
    return digits


def _scaled(a: np.ndarray, x, work: _Work) -> np.ndarray:
    """a * 10**(16 - x) rounded half to even: Dekker's two-product (Numer. Math. 18, 1971)
    is exactly hi + lo, and with 17 digits hi >= 2**53 is even, so rint(lo) rounds as dtoa."""
    hi, ah, al, lo, t = work("scaled", (5, len(a)))
    n, low = work("n", (2, len(a)), np.int64)
    p = _POW10[16 - x]
    np.multiply(a, p, out=hi)
    # Veltkamp's split into halves of at most 26 bits each; 134217729 = 2**27 + 1
    np.subtract(np.multiply(a, 134217729.0, out=t), np.subtract(t, a, out=ah), out=ah)
    np.subtract(a, ah, out=al)
    cp = 134217729.0 * p
    ph = cp - (cp - p)
    pl = p - ph
    # lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    np.subtract(hi, np.multiply(ah, ph, out=lo), out=lo)
    np.subtract(lo, np.multiply(al, ph, out=t), out=lo)
    np.subtract(lo, np.multiply(ah, pl, out=t), out=lo)
    np.rint(np.subtract(np.multiply(al, pl, out=t), lo, out=lo), out=lo)
    np.copyto(n, hi, casting="unsafe")
    np.copyto(low, lo, casting="unsafe")
    return np.add(n, low, out=n)


def _fixed_17g(m: np.ndarray, cells: np.ndarray, work: _Work) -> None:
    """Write '%.17g' % v for each v of m, at least one, into cells, a (len(m), 6) _WORD
    matrix or a view of six words of each row of one, as NUL-padded rows of six 4-byte words.
    Entries with |v| outside [1e-4, 1e16), which %g writes with an exponent, as 0 or not
    finite, go one by one through _percent_17g; _laid_out writes the rest in arrays. Values
    of one decimal exponent, as a long run's means, share one scalar scale and one layout:
    IEEE 754 rounds scalar and array doubles alike. work holds the arrays of one call for the
    next."""
    a = np.abs(m, out=work("abs", m.shape))
    whole = 1e-4 <= a.min() and a.max() < 1e16  # NaN fails both
    if not whole:
        inside = (1e-4 <= a) & (a < 1e16)
        cells[~inside] = _percent_17g(m[~inside]).view(_WORD)
        m, a = m[inside], a[inside]
    if len(m):
        first, last = np.floor(np.log10([a.min(), a.max()])).astype(np.int64)  # exponent, or one off
        x = first if first == last else np.floor(np.log10(a)).astype(np.int64)
        n = _scaled(a, x, work)
        if n.min() < 10**16 or n.max() >= 10**17:
            x = x + (n >= 10**17) - (n < 10**16)
            n = _scaled(a, x, work)  # now every row holds its 17 significant digits
        fixed = cells if whole else np.empty((len(m), 6), _WORD)
        if np.ndim(x):
            for e in range(np.min(x), np.max(x) + 1):
                rows = np.flatnonzero(x == e)
                part = np.empty((len(rows), 6), _WORD)
                fixed[rows] = _laid_out(n[rows], m[rows] < 0, int(e), part, work)
        else:
            _laid_out(n, m < 0, int(x), fixed, work)
        if not whole:
            cells[inside] = fixed


def _laid_out(n: np.ndarray, negative: np.ndarray, e: int, cells: np.ndarray, work: _Work) -> np.ndarray:
    """Write the fixed-notation '%.17g' texts of the values with 17 significant digits n, signs
    negative and decimal exponent e in [-4, 15] into cells, rows of six words, and return it.
    They are laid out one word per row, in place over _ascii's digit words. Below e = 0, "0." and
    -1 - e zeros fill the three NULs of the leading digit's word and the word before it; from
    e = 0 on, the words before the point shift one byte left, freeing its byte. A fraction's
    trailing zeros, and a point with no digit after it, are NUL: the last digit word comes
    from _TRIMMED_WORDS where it is all fraction, and so does each word before it that is
    followed by NULs only."""
    words = work("words", (6, len(n)), _WORD)
    point, at = divmod(3 + e, 4)  # from e = 0 on, the digit word and byte that take the point
    _ascii(n, words[1:], 1 if point < 4 else 0, work)
    sign = negative * np.uint32(ord("-"))
    if e < 0:
        lead = np.frombuffer(b"0.".ljust(1 - e, b"0").rjust(7, b"\0") + b"\0", _WORD)
        words[0] = lead[0]
        words[1] |= lead[1]
        words[(5 + e) // 4] |= sign << 8 * ((5 + e) % 4)  # the byte before "0."
    else:
        low, dot, high = (1 << 8 * at) - 1, ord(".") << 8 * at, -(1 << 8 * at + 8) & 0xFFFFFFFF
        words[0] = 0
        words[1:1 + point] = words[1:1 + point] >> 8 | words[2:2 + point] << 24
        words[1 + point] = words[1 + point] >> 8 & low | dot | words[1 + point] & high
        words[1] |= sign << 8  # the byte before the leading digit
    # the rows whose trailing zeros reach word, the last digit word not trimmed yet: from the
    # point's, those whose last digit (its top byte) is 0; else those whose last word is NUL
    if point == 4:
        word, rows = 4, np.flatnonzero(words[5] < 0x31000000)
    else:
        word, rows = 3, np.flatnonzero(words[5] == 0)
    while len(rows) and word >= (point if e >= 0 else 1):
        trimmed = _ascii(n[rows], np.empty((5, len(rows)), _WORD), 4, work)[word]
        if word == point:  # keep the integer digits, and the point if a digit follows it
            tail = trimmed & high
            words[1 + word, rows] = words[1 + word, rows] & low | tail | (tail != 0) * np.uint32(dot)
            break
        words[1 + word, rows] = trimmed
        rows = rows[trimmed == 0]
        word -= 1
    cells[:] = words.T
    return cells


def _percent_17g(m: np.ndarray) -> np.ndarray:
    """'%.17g' % v per v of m, right-aligned in NUL-padded rows 24 wide, enough for any double."""
    return np.array([(b"%.17g" % v).rjust(24, b"\0") for v in m.tolist()]).view(np.uint8).reshape(-1, 24)


def _csv_rows(fh, table: np.ndarray, n: int):
    """Write the header to fh, and return a _tally sink that writes each leaf's rows of n
    after it. A row is NUL-padded 4-byte words: the index, the ",x,y,u,v,S," stem, the
    running mean's six and CRLF. Each leaf's rows start as a take of their outcomes' rows of
    stem and CRLF; the index's low word is a slice of _INDEX_WORDS and its high words one fill
    per 10**4 shots; _fixed_17g writes the means, and one pass drops the NULs. The matrix,
    its NUL mask and the shot numbers are allocated once, and the running sums and _fixed_17g's
    arrays live in the sink's one _Work, so a leaf allocates no large array but the text it
    writes."""
    stems = [b",%d,%d,%d,%d,%.17g," % (*xi.as_tuple(), s) for xi, s in zip(OUTCOMES, table.tolist())]
    fh.write(",".join(SHOT_CSV_HEADER).encode() + b"\r\n")
    i, k = (len(str(n)) + 3) // 4, (max(map(len, stems)) + 3) // 4  # index and stem words
    outcome_rows = np.zeros((16, i + k + 7), _WORD)
    chars = outcome_rows.view(np.uint8)
    chars[:, 4 * i:4 * (i + k)] = np.array(stems, f"S{4 * k}").view(np.uint8).reshape(16, -1)
    chars[:, -4:-2] = np.frombuffer(b"\r\n", np.uint8)
    size = min(SHOT_CHUNK, n)
    buf, keep = np.empty((size, i + k + 7), _WORD), np.empty((size, 4 * (i + k + 7)), bool)
    numbers, work, total = np.arange(1.0, size + 1), _Work(size), 0.0

    def write(start: int, idx: np.ndarray, values: np.ndarray) -> None:
        nonlocal total
        size = len(idx)
        rows = np.take(outcome_rows, idx, axis=0, out=buf[:size])
        for high in range((start + 1) // 10**4, (start + size) // 10**4 + 1):  # shots start + 1 on
            a, b = max(high * 10**4 - start - 1, 0), min((high + 1) * 10**4 - start - 1, size)
            low = start + 1 + a - max(high - 1, 0) * 10**4  # shot start + 1 + a's place in _INDEX_WORDS
            rows[a:b, i - 1] = _INDEX_WORDS[low:low + b - a]
            rows[a:b, :i - 1] = np.frombuffer((b"%d" % high if high else b"").rjust(4 * i - 4, b"\0"), _WORD)
        sums = _running_sums(values, total, work("sums", (size + 1,)))
        total = sums[-1]
        np.add(numbers, start + 1 - numbers[0], out=numbers)  # shots start + 1 on, exact below 2**53
        _fixed_17g(np.divide(sums, numbers[:size], out=sums), rows[:, i + k:-1], work)
        chars = rows.view(np.uint8)
        fh.write(chars[np.not_equal(chars, 0, out=keep[:size])])

    return write


def csv_lines(columns) -> np.ndarray:
    """The CSV lines of one batch of rows, as a uint8 array, from columns of a value per row
    (floats, written '%.17g', or booleans, written 0 or 1) and the text of columns that every
    row shares. The rows are laid out as a run's are: one matrix of NUL-padded 4-byte words,
    the shared text and separators between the varying columns as words, each float column's
    six words written in place by _fixed_17g, whose arrays live in one _Work, and a boolean as
    one word; one pass drops the NULs."""
    pieces, shared = [], b""
    for c in columns:
        if isinstance(c, bytes):
            shared += c + b","
        else:
            pieces += [shared, c]
            shared = b","
    pieces.append(shared[:-1] + b"\n")
    widths = [(len(p) + 3) // 4 if isinstance(p, bytes) else 1 if p.dtype == bool else 6
              for p in pieces]
    rows, work = np.empty((len(pieces[1]), sum(widths)), _WORD), _Work()  # text, column, text, ...
    for piece, cells in zip(pieces, np.split(rows, np.cumsum(widths)[:-1], axis=1)):  # views of rows
        if isinstance(piece, bytes):
            cells[:] = np.frombuffer(piece.ljust(4 * cells.shape[1], b"\0"), _WORD)
        elif piece.dtype == bool:
            np.add(piece, np.uint32(ord("0")), out=cells[:, 0])
        else:
            _fixed_17g(piece, cells, work)
    chars = rows.view(np.uint8)
    return chars[chars != 0]


def write_shot_csv(path, kernel: InversionKernel, shots) -> None:
    """Write one CSV row per shot: 1-based index, signs as +-1 integers,
    single-shot S and running mean at full precision, CRLF line ends. The shots,
    a ShotDraws or an outcome list, are checked before path is opened."""
    shots = _source(shots)
    table = belltests.single_shot_chsh_table(kernel)
    with open(checked_instance(path, (str, bytes, os.PathLike), "path"), "wb") as fh:
        _tally(shots, table.take, _csv_rows(fh, table, shots.n))


linalg.read_only(globals())
