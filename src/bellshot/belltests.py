"""CHSH and Clauser-Horne evaluators, ensemble and single-shot.

The CHSH combination s(xi) = xu - xv + yu + yv averages to the usual test
value S, bounded by |S| <= 2 in any causal model. Evaluating the same
combination on the inferred conditional distribution of a single measured
outcome xi' gives a per-shot value S(xi'); with all unsharpness factors
equal to gamma it is s(xi') / gamma^2, so every individual outcome breaks
the causal bound by the factor 1 / gamma^2. The probability-form CH test
0 >= C >= -1 behaves the same way.

Every single-shot quantity is computed twice, once from the definitional
sum over the inversion kernel and once from the closed form, and the two
are cross-asserted; the closed forms are the load-bearing results, so they
are never trusted unverified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inversion, linalg, measurement
from .errors import ConsistencyError, EmptyShotList, InvalidDistribution, OutOfRange
from .inversion import InversionKernel, QuasiDistribution
from .measurement import OUTCOMES, OutcomeIndex

CHSH_BOUND = 2.0
CH_UPPER_BOUND = 0.0
CH_LOWER_BOUND = -1.0

# the signs of x, y, u and v at each outcome, shape (4, 16), and their
# kernel_1d indices (0 for +1, 1 for -1)
OUTCOME_SIGNS = np.array([xi.as_tuple() for xi in OUTCOMES], dtype=float).T
SIGN_INDEX = (OUTCOME_SIGNS < 0).astype(int)
SIGNS_X, SIGNS_Y, SIGNS_U, SIGNS_V = OUTCOME_SIGNS
S_VALUES = SIGNS_X * SIGNS_U - SIGNS_X * SIGNS_V + SIGNS_Y * SIGNS_U + SIGNS_Y * SIGNS_V


def s_of_xi(xi: OutcomeIndex) -> int:
    """xu - xv + yu + yv, always +-2 for sign-valued arguments."""
    return xi.x * xi.u - xi.x * xi.v + xi.y * xi.u + xi.y * xi.v


def _in_order_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, adding left to right as a Python loop does
    (np.sum adds pairwise, which can change the last bits)."""
    return np.cumsum(terms, axis=-1)[..., -1]


def require_agreement(what: str, first, second, where) -> None:
    """The one route check: raise ConsistencyError at the entry where two routes differ
    most, if that is by more than linalg.DUAL_PATH_TOL; where(*index) names the entry."""
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    gap = np.abs(first - second)
    k = np.unravel_index(np.argmax(gap), gap.shape)
    linalg.require(gap[k], linalg.DUAL_PATH_TOL, lambda _: ConsistencyError(
        f"{what} paths disagree at {where(*k)}: {float(first[k])!r} vs {float(second[k])!r}"))


def ensemble_chsh(q: QuasiDistribution) -> float:
    """CHSH value as the average of s(xi) over the quasi-distribution."""
    return float(ensemble_chsh_values(q.entries))


def ensemble_chsh_values(entries: np.ndarray) -> np.ndarray:
    """ensemble_chsh for each quasi-distribution of a stack (..., 16)."""
    return _in_order_sum(S_VALUES * entries)


def single_shot_chsh_table(kernel: InversionKernel) -> np.ndarray:
    """All 16 single-shot CHSH values in canonical outcome order."""
    return single_shot_chsh_tables(kernel.table, kernel.gammas.as_tuple())


def single_shot_chsh_tables(tables: np.ndarray, gammas) -> np.ndarray:
    """single_shot_chsh_table for each table of a stack (..., 16, 16) and its
    gammas (..., 4). The sum of s(xi) against each kernel column must match the
    closed form built from the gammas, or the kernel and algebra have diverged."""
    by_sum = S_VALUES @ tables
    gx, gy, gu, gv = np.moveaxis(np.asarray(gammas, dtype=float)[..., None], -2, 0)
    closed = (
        gy * gv * SIGNS_X * SIGNS_U
        - gy * gu * SIGNS_X * SIGNS_V
        + gx * gv * SIGNS_Y * SIGNS_U
        + gx * gu * SIGNS_Y * SIGNS_V
    ) / (gx * gy * gu * gv)
    require_agreement("single-shot CHSH", by_sum, closed, lambda *k: OUTCOMES[k[-1]])
    return closed


def ensemble_from_shots(kernel: InversionKernel, shots) -> float:
    """Arithmetic mean of single-shot CHSH values over a shot list."""
    values = single_shot_chsh_table(kernel)[measurement.as_indices(shots)]
    if len(values) == 0:
        raise EmptyShotList("cannot average single-shot CHSH over zero shots")
    return float(np.mean(values))


def single_shot_ch_table(kernel: InversionKernel) -> np.ndarray:
    """The full (xi, xi') grid of single-shot CH values, shape (16, 16)."""
    return single_shot_ch_tables(kernel.gammas.as_tuple())


def single_shot_ch_tables(gammas) -> np.ndarray:
    """single_shot_ch_table for each gamma 4-vector of a stack (..., 4): the CH pair
    probabilities factorize over the one-observable kernels, and are checked
    against the closed form -1/2 plus the four gamma-weighted sign products."""
    gx, gy, gu, gv = gammas = np.moveaxis(np.asarray(gammas, dtype=float)[..., None, None], -3, 0)
    x, y, u, v = products = [w[:, None] * w for w in OUTCOME_SIGNS]  # w(xi) w(xi')
    # kernel_1d(gamma)[w, w'] = (1 + w w' / gamma) / 2 at every pair, bit for bit
    px, py, pu, pv = (0.5 * (1.0 + ww / g) for ww, g in zip(products, gammas))
    by_substitution = px * pu - px * pv + py * pu + py * pv - py - pu

    closed = (
        -0.5
        - (x * v) / (4.0 * gx * gv)
        + (y * v) / (4.0 * gy * gv)
        + (x * u) / (4.0 * gx * gu)
        + (y * u) / (4.0 * gy * gu)
    )
    require_agreement("single-shot CH", by_substitution, closed,
                      lambda *k: f"({OUTCOMES[k[-2]]}, {OUTCOMES[k[-1]]})")
    return closed


def single_shot_ch(kernel: InversionKernel, xi: OutcomeIndex, xi_prime: OutcomeIndex) -> float:
    """CH value inferred from one measured outcome, for target signs xi."""
    return float(single_shot_ch_table(kernel)[xi.to_index(), xi_prime.to_index()])


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classical-bound check for one scalar quantity."""

    status: str  # "satisfied", "satisfied (boundary)", "violated"
    margin: float
    bound: str | None = None  # which bound a violation broke: "upper"/"lower"

    def as_dict(self) -> dict:
        d = {"status": self.status, "margin": self.margin}
        if self.bound is not None:
            d["bound"] = self.bound
        return d


def _bound_verdict(value: float, low: float, high: float, names=("upper", "lower")) -> Verdict:
    """The one classical-bound rule, low <= value <= high, judged on the gap to each bound:
    past one by more than linalg.BOUNDARY_TOL is a violation, naming that bound as names
    (upper, lower) name it; within it, a boundary case."""
    try:  # a plain math.isfinite, not linalg.as_finite: exact makes 33 verdicts per call
        finite = math.isfinite(value)  # NaN fails every comparison, so it would read "satisfied"
        value = value if finite else float(value)  # a numpy nan shows as nan
    except (TypeError, OverflowError):  # not a real number, or an int past float range
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


def chsh_verdict(value: float) -> Verdict:
    """|S| <= 2 check: _bound_verdict on [-2, 2], naming no bound."""
    return _bound_verdict(value, -CHSH_BOUND, CHSH_BOUND, (None, None))


def ch_verdict(value: float) -> Verdict:
    """0 >= C >= -1 check: _bound_verdict on [-1, 0]."""
    return _bound_verdict(value, CH_LOWER_BOUND, CH_UPPER_BOUND)


@dataclass(frozen=True)
class ChshReport:
    """Everything the CHSH test produces for one state and measurement."""

    s_values: np.ndarray  # (16,), s(xi)
    ensemble_S: float
    single_shot_S: np.ndarray  # (16,), indexed by xi'
    bound = CHSH_BOUND  # unannotated, so a class constant and not a dataclass field

    def as_dict(self) -> dict:
        return {
            "s_values": self.s_values.tolist(),
            "ensemble_S": self.ensemble_S,
            "single_shot_S": self.single_shot_S.tolist(),
            "bound": self.bound,
        }


@dataclass(frozen=True)
class ChReport:
    """CH test results: the (xi, xi') grid and the 16 exact values."""

    single_shot_C: np.ndarray  # (16, 16)
    ensemble_C: np.ndarray  # (16,)
    bounds = (CH_UPPER_BOUND, CH_LOWER_BOUND)  # unannotated: a class constant

    def as_dict(self) -> dict:
        return {
            "single_shot_C": self.single_shot_C.tolist(),
            "ensemble_C": self.ensemble_C.tolist(),
            "bounds": list(self.bounds),
        }


def chsh_report(kernel: InversionKernel, observed) -> ChshReport:
    """Build the CHSH report, verifying that the quasi-distribution average
    and the shot-weighted average of single-shot values coincide."""
    p = linalg.as_finite(observed, (16,), "observed statistics", InvalidDistribution)
    via_quasi = ensemble_chsh(inversion.invert_distribution(kernel, p))
    table = single_shot_chsh_table(kernel)
    require_agreement("ensemble CHSH", via_quasi, table @ p, lambda: "S")
    return ChshReport(s_values=S_VALUES, ensemble_S=via_quasi, single_shot_S=table)


def ch_report(kernel: InversionKernel, observed) -> ChReport:
    """Build the CH report. The exact value for each of the 16 target signs
    xi comes along two routes that must agree to rounding: the
    observed-weighted average of single-shot values, and the CH combination
    evaluated on marginals of the inverted quasi-distribution (which equal
    the sharp Born probabilities)."""
    p = linalg.as_finite(observed, (16,), "observed statistics", InvalidDistribution)
    grid = single_shot_ch_table(kernel)
    by_average = _in_order_sum(grid * p)
    m = inversion.invert_distribution(kernel, p).entries.reshape(2, 2, 2, 2)  # axes x, y, u, v
    ix, iy, iu, iv = SIGN_INDEX
    by_marginals = (
        m.sum(axis=(1, 3))[ix, iu]
        - m.sum(axis=(1, 2))[ix, iv]
        + m.sum(axis=(0, 3))[iy, iu]
        + m.sum(axis=(0, 2))[iy, iv]
        - m.sum(axis=(0, 2, 3))[iy]
        - m.sum(axis=(0, 1, 3))[iu]
    )
    require_agreement("ensemble CH", by_average, by_marginals, lambda j: OUTCOMES[j])
    return ChReport(single_shot_C=grid, ensemble_C=by_average)


def classical_bounds_check(report) -> dict:
    """Per-quantity verdicts for a ChshReport or a ChReport."""
    if isinstance(report, ChshReport):
        return {
            "ensemble_S": chsh_verdict(report.ensemble_S).as_dict(),
            "single_shot_S": [chsh_verdict(s).as_dict() for s in report.single_shot_S.tolist()],
        }
    if isinstance(report, ChReport):
        grid = report.single_shot_C
        # ch_verdict's "violated" predicate, over the whole grid at once
        tol = linalg.BOUNDARY_TOL
        violated = (grid - CH_UPPER_BOUND > tol) | (CH_LOWER_BOUND - grid > tol)
        return {
            "ensemble_C": [ch_verdict(c).as_dict() for c in report.ensemble_C.tolist()],
            "single_shot_C": {
                "min": float(grid.min()),
                "max": float(grid.max()),
                "all_violated": bool(np.all(violated)),
            },
        }
    raise TypeError(f"expected ChshReport or ChReport, got {type(report).__name__}")
