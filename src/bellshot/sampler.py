"""Finite-shot simulation of the sixteen-outcome joint measurement.

Sampling uses counter-based Philox generators keyed by (seed, stream
index), so a run is reproducible for a fixed seed and stream count and
independent streams can be drawn without coordination. Shots are split
into contiguous blocks across streams and merged back in stream order,
which keeps the output deterministic under the same configuration.
A shot list is an int64 array of outcome indices; sample_shots and
shot_records are list-of-object views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belltests import single_shot_chsh_table
from .errors import EmptyShotList, InvalidDistribution, OutOfRange
from .inversion import InversionKernel
from .measurement import OUTCOMES, OutcomeIndex, as_indices

PROB_FLOOR = -1e-10
PROB_SUM_SLACK = 1e-6

SHOT_CSV_HEADER = ("index", "x_prime", "y_prime", "u_prime", "v_prime", "S_single", "running_mean_S")
CSV_CHUNK = 8192  # shots formatted per write by write_shot_csv; bounds its byte matrices

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
# 0..9999 as 4-byte ASCII words, zero-padded, then again from 10**4 with NUL padding
_PREFIXES = np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
_WORD_BYTES = (_PREFIXES % 10 + ord("0")).astype(np.uint8)
_DIGIT_WORDS = np.concatenate([_WORD_BYTES, _WORD_BYTES * (_PREFIXES > 0)]).view(np.uint32).ravel()
# the columns of _fixed_17g's ext that spell exponent x in fixed notation, 23 wide
_DIGITS = list(range(3, 20))
_LAYOUTS = {
    x: np.array(([0] + ([2, 1] + [2] * (-x - 1) + _DIGITS if x < 0 else
                        _DIGITS[:x + 1] + [1] + _DIGITS[x + 1:]) + [2] * 4)[:23])
    for x in range(-4, 16)
}
_KEEP = np.tril(np.full((23, 23), 0xFF, np.uint8))  # row L keeps columns 0..L


@dataclass(frozen=True)
class RngConfig:
    """Reproducibility contract for a sampling run."""

    seed: int
    stream_count: int = 1

    def __post_init__(self):
        for name in ("seed", "stream_count"):
            value = getattr(self, name)
            # bool subclasses int, and a float such as 1.5 would key seed 1's stream
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise OutOfRange(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.seed < 2**64:
            raise OutOfRange(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.stream_count < 1:
            raise OutOfRange(f"stream_count must be >= 1, got {self.stream_count}")

    def generator(self, stream: int) -> np.random.Generator:
        if not 0 <= stream < self.stream_count:
            raise OutOfRange(f"stream {stream} outside [0, {self.stream_count})")
        # a plain list would go through float64 for seeds >= 2**63, merging seeds
        key = np.array([self.seed, stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _checked_probabilities(probabilities) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (16,):
        raise InvalidDistribution(f"expected 16 probabilities, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("probabilities contain non-finite entries")
    if p.min() < PROB_FLOOR:
        raise InvalidDistribution(f"probability {float(p.min())!r} below {PROB_FLOOR}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_SLACK:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    # tiny negatives are rounding debris; clamp and renormalize
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_outcome_indices(probabilities, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n outcome indices (0..15) by inverse transform sampling."""
    if n < 0:
        raise OutOfRange(f"shot count must be nonnegative, got {n}")
    p = _checked_probabilities(probabilities)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0  # guard against cumulative rounding at the top
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64, copy=False)


def sample_indices(probabilities, n: int, config: RngConfig) -> np.ndarray:
    """Draw n outcome indices, contiguous blocks per stream, merged in stream
    order; the first n % stream_count streams draw one shot more. Streams
    that draw nothing get no generator, except stream 0, which checks p.
    The output is allocated before any stream is keyed, so a count numpy
    cannot hold raises OutOfRange at once."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise OutOfRange(f"shot count must be an integer, got {n!r}")
    if n < 0:
        raise OutOfRange(f"shot count must be nonnegative, got {n}")
    try:
        out = np.empty(n, np.int64)
    except (ValueError, MemoryError) as exc:
        raise OutOfRange(f"shot count {n} is too many: {exc}") from None
    base, extra = divmod(n, config.stream_count)
    start = 0
    for stream in range(max(1, min(config.stream_count, n))):
        stop = start + base + (stream < extra)
        out[start:stop] = sample_outcome_indices(probabilities, stop - start, config.generator(stream))
        start = stop
    return out


def sample_shots(probabilities, n: int, config: RngConfig) -> list[OutcomeIndex]:
    """sample_indices as a list of OutcomeIndex."""
    return [OUTCOMES[i] for i in sample_indices(probabilities, n, config).tolist()]


def _running_sums(values: np.ndarray, total: float = 0.0) -> np.ndarray:
    """Partial sums after a carried-in total, added in the order a loop doing
    `total += s` adds them, so chunked running means agree bit for bit."""
    return np.cumsum(np.concatenate(([total], values)))[1:]


@dataclass(frozen=True)
class ShotRecord:
    """One row of a run: 1-based shot index, signs, and CHSH values."""

    index: int
    xi_prime: OutcomeIndex
    s_single: float
    running_mean_S: float


def shot_records(kernel: InversionKernel, outcomes) -> list[ShotRecord]:
    """The rows write_shot_csv writes, as a list of ShotRecord."""
    idx = as_indices(outcomes)
    values = single_shot_chsh_table(kernel)[idx]
    means = _running_sums(values) / np.arange(1, len(idx) + 1)
    rows = zip(idx.tolist(), values.tolist(), means.tolist())
    return [ShotRecord(i, OUTCOMES[k], s, m) for i, (k, s, m) in enumerate(rows, start=1)]


def empirical_frequencies(outcomes) -> np.ndarray:
    """Relative frequency of each of the 16 outcomes in a shot list."""
    idx = as_indices(outcomes)
    if len(idx) == 0:
        raise EmptyShotList("cannot take frequencies of zero shots")
    return np.bincount(idx, minlength=16) / len(idx)


def convergence_report(kernel: InversionKernel, shots) -> dict:
    """Mean, spread, and standard error of the single-shot CHSH values.

    The reported mean is exactly ensemble_from_shots on the same data;
    with one shot the spread and standard error are reported as absent.
    """
    values = single_shot_chsh_table(kernel)[as_indices(shots)]
    n = len(values)
    if n == 0:
        raise EmptyShotList("cannot summarize zero shots")
    std = float(values.std(ddof=1)) if n > 1 else None
    return {
        "shots": n,
        "mean_S": float(values.mean()),
        "sample_std": std,
        "std_error": std / float(np.sqrt(n)) if std is not None else None,
    }


def _ascii(n: np.ndarray) -> np.ndarray:
    """Each n >= 1 as ASCII digits right-aligned in 4-byte words, leading zeros NUL."""
    groups = np.empty((len(n), (len(str(n.max())) + 3) // 4), np.int64)
    for j in reversed(range(groups.shape[1])):
        n, groups[:, j] = np.divmod(n, 10**4)
        groups[:, j] += (n == 0) * 10**4
    return _DIGIT_WORDS.take(groups).view(np.uint8)


def _split(a):  # Veltkamp's split into halves of at most 26 bits each
    hi = 134217729.0 * a - (134217729.0 * a - a)  # 2**27 + 1
    return hi, a - hi


def _scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * 10**(16 - x) rounded half to even: Dekker's two-product (Numer. Math. 18, 1971)
    is exactly hi + lo, and with 17 digits hi >= 2**53 is even, so rint(lo) rounds as dtoa."""
    p = _POW10[16 - x]
    hi = a * p
    (ah, al), (ph, pl) = _split(a), _split(p)
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_17g(m: np.ndarray):
    """'%.17g' % v for each v of m as NUL-padded rows of a (len(m), 23) uint8 matrix;
    None if some |v| is outside [1e-4, 1e16): %g's exponent form, 0 or not finite."""
    a = np.abs(m)
    if not np.all((a >= 1e-4) & (a < 1e16)):
        return None
    x = np.floor(np.log10(a)).astype(np.int64)  # the decimal exponent, or one off
    n = _scaled(a, x)
    x += (n >= 10**17).astype(np.int64) - (n < 10**16)
    n = _scaled(a, x)  # the 17 significant digits
    ext = _ascii(n)  # 20 columns: 0 sign, 1 '.', 2 '0', 3 + j digit j
    ext[:, 0] = (m < 0) * ord("-")
    ext[:, 1:3] = ord("."), ord("0")
    k = np.maximum(16 - np.argmax(ext[:, :2:-1] != ord("0"), axis=1), x)  # last nonzero digit, or x
    length = k + (k > x) + np.maximum(-x, 0) + 1  # without trailing zeros or a bare point
    chars = ext.take(_LAYOUTS[x.min()], axis=1)
    for e in range(x.min() + 1, x.max() + 1):
        rows = x == e
        chars[rows] = ext[rows].take(_LAYOUTS[e], axis=1)
    return chars & _KEEP.take(length, axis=0)


def write_shot_csv(path, kernel: InversionKernel, shots) -> None:
    """Write one CSV row per shot: 1-based index, signs as +-1 integers,
    single-shot S and running mean at full precision, CRLF line ends. Each
    CSV_CHUNK rows are one NUL-padded byte matrix of index, ",x,y,u,v,S," stem,
    running mean and CRLF; % formats the means of a chunk _fixed_17g declines."""
    idx = as_indices(shots)
    table = single_shot_chsh_table(kernel)
    stems = [b",%d,%d,%d,%d,%.17g," % (*xi.as_tuple(), s) for xi, s in zip(OUTCOMES, table.tolist())]
    stem_chars = np.array(stems).view(np.uint8).reshape(16, -1)
    total = 0.0
    with open(path, "wb") as fh:
        fh.write(",".join(SHOT_CSV_HEADER).encode() + b"\r\n")
        for start in range(0, len(idx), CSV_CHUNK):
            chunk = idx[start:start + CSV_CHUNK]
            sums = _running_sums(table[chunk], total)
            total = sums[-1]
            numbers = np.arange(start + 1, start + len(chunk) + 1)
            means = sums / numbers
            mean_chars = _fixed_17g(means)
            if mean_chars is None:
                mean_bytes = np.array([b"%.17g" % m for m in means.tolist()])
                mean_chars = mean_bytes.view(np.uint8).reshape(len(means), -1)
            crlf = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (len(chunk), 2))
            chars = np.concatenate(
                [_ascii(numbers), stem_chars.take(chunk, axis=0), mean_chars, crlf], axis=1
            )
            fh.write(chars[chars != 0].tobytes())
