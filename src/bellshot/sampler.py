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
CSV_CHUNK = 65536  # shots formatted per write by write_shot_csv


@dataclass(frozen=True)
class RngConfig:
    """Reproducibility contract for a sampling run."""

    seed: int
    stream_count: int = 1

    def __post_init__(self):
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
        raise InvalidDistribution(f"probability {p.min()!r} below {PROB_FLOOR}")
    total = p.sum()
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
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64)


def sample_indices(probabilities, n: int, config: RngConfig) -> np.ndarray:
    """Draw n outcome indices, contiguous blocks per stream, merged in stream
    order; the first n % stream_count streams draw one shot more."""
    base, extra = divmod(n, config.stream_count)
    return np.concatenate([
        sample_outcome_indices(probabilities, base + (stream < extra), config.generator(stream))
        for stream in range(config.stream_count)
    ])


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


def write_shot_csv(path, kernel: InversionKernel, shots) -> None:
    """Write one CSV row per shot: 1-based index, signs as +-1 integers,
    single-shot S and running mean at full precision, CRLF line ends. Rows
    are built CSV_CHUNK at a time from 16 "x,y,u,v,S_single" stems."""
    idx = as_indices(shots)
    table = single_shot_chsh_table(kernel)
    stems = ["%d,%d,%d,%d,%.17g" % (*xi.as_tuple(), s) for xi, s in zip(OUTCOMES, table.tolist())]
    total = 0.0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SHOT_CSV_HEADER) + "\r\n")
        for start in range(0, len(idx), CSV_CHUNK):
            chunk = idx[start:start + CSV_CHUNK]
            sums = _running_sums(table[chunk], total)
            total = sums[-1]
            numbers = np.arange(start + 1, start + len(chunk) + 1)
            rows = zip(numbers.tolist(), chunk.tolist(), (sums / numbers).tolist())
            fh.write("".join(["%d,%s,%.17g\r\n" % (i, stems[k], m) for i, k, m in rows]))
