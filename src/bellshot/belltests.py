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

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, EmptyShotList
from .inversion import InversionKernel, QuasiDistribution, invert_distribution, kernel_1d
from .measurement import OUTCOMES, OutcomeIndex, as_indices, sign_index

DUAL_PATH_TOL = 1e-10
CONSISTENCY_TOL = 1e-10
BOUNDARY_TOL = 1e-12

CHSH_BOUND = 2.0
CH_UPPER_BOUND = 0.0
CH_LOWER_BOUND = -1.0


def s_of_xi(xi: OutcomeIndex) -> int:
    """xu - xv + yu + yv, always +-2 for sign-valued arguments."""
    return xi.x * xi.u - xi.x * xi.v + xi.y * xi.u + xi.y * xi.v


def ensemble_chsh(q: QuasiDistribution) -> float:
    """CHSH value as the average of s(xi) over the quasi-distribution."""
    return float(sum(s_of_xi(xi) * q.entries[i] for i, xi in enumerate(OUTCOMES)))


def single_shot_chsh(kernel: InversionKernel, xi_prime: OutcomeIndex) -> float:
    """CHSH value inferred from one measured outcome.

    Cross-checks the sum of s(xi) against the kernel column with the closed
    form built from the gamma factors; disagreement raises, since it would
    mean the kernel and the algebra have diverged.
    """
    column = kernel.table[:, xi_prime.to_index()]
    by_sum = float(sum(s_of_xi(xi) * column[i] for i, xi in enumerate(OUTCOMES)))

    gx, gy, gu, gv = kernel.gammas.as_tuple()
    xp, yp, up, vp = xi_prime.as_tuple()
    closed = (
        gy * gv * xp * up - gy * gu * xp * vp + gx * gv * yp * up + gx * gu * yp * vp
    ) / (gx * gy * gu * gv)

    if abs(by_sum - closed) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"single-shot CHSH paths disagree at {xi_prime}: sum {by_sum!r} vs closed {closed!r}"
        )
    return closed


def single_shot_chsh_table(kernel: InversionKernel) -> np.ndarray:
    """All 16 single-shot CHSH values in canonical outcome order."""
    return np.array([single_shot_chsh(kernel, xp) for xp in OUTCOMES])


def ensemble_from_shots(kernel: InversionKernel, shots) -> float:
    """Arithmetic mean of single-shot CHSH values over a shot list."""
    values = single_shot_chsh_table(kernel)[as_indices(shots)]
    if len(values) == 0:
        raise EmptyShotList("cannot average single-shot CHSH over zero shots")
    return float(np.mean(values))


def single_shot_ch(kernel: InversionKernel, xi: OutcomeIndex, xi_prime: OutcomeIndex) -> float:
    """CH value inferred from one measured outcome, for target signs xi.

    The pair probabilities of the CH combination factorize over the
    one-observable kernels; the result is checked against the closed form
    -1/2 plus the four gamma-weighted sign products.
    """
    gx, gy, gu, gv = kernel.gammas.as_tuple()
    px = kernel_1d(gx)[sign_index(xi.x), sign_index(xi_prime.x)]
    py = kernel_1d(gy)[sign_index(xi.y), sign_index(xi_prime.y)]
    pu = kernel_1d(gu)[sign_index(xi.u), sign_index(xi_prime.u)]
    pv = kernel_1d(gv)[sign_index(xi.v), sign_index(xi_prime.v)]
    by_substitution = px * pu - px * pv + py * pu + py * pv - py - pu

    x, y, u, v = xi.as_tuple()
    xp, yp, up, vp = xi_prime.as_tuple()
    closed = (
        -0.5
        - (x * xp * v * vp) / (4.0 * gx * gv)
        + (y * yp * v * vp) / (4.0 * gy * gv)
        + (x * xp * u * up) / (4.0 * gx * gu)
        + (y * yp * u * up) / (4.0 * gy * gu)
    )

    if abs(by_substitution - closed) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"single-shot CH paths disagree at ({xi}, {xi_prime}): "
            f"{by_substitution!r} vs {closed!r}"
        )
    return closed


def single_shot_ch_table(kernel: InversionKernel) -> np.ndarray:
    """The full (xi, xi') grid of single-shot CH values, shape (16, 16)."""
    grid = np.empty((16, 16))
    for i, xi in enumerate(OUTCOMES):
        for j, xp in enumerate(OUTCOMES):
            grid[i, j] = single_shot_ch(kernel, xi, xp)
    return grid


def ensemble_ch(kernel: InversionKernel, observed, xi: OutcomeIndex) -> float:
    """Exact CH value for target signs xi, from observed statistics.

    Two routes: the observed-weighted average of single-shot values, and
    the CH combination evaluated on marginals of the inverted
    quasi-distribution (which equal the sharp Born probabilities). Both
    must agree to rounding.
    """
    p = np.asarray(observed, dtype=float)
    by_average = float(
        sum(single_shot_ch(kernel, xi, xp) * p[j] for j, xp in enumerate(OUTCOMES))
    )

    q = invert_distribution(kernel, p)
    grid = q.entries.reshape(2, 2, 2, 2)
    ix, iy, iu, iv = (sign_index(w) for w in xi.as_tuple())
    p_xu = grid.sum(axis=(1, 3))[ix, iu]
    p_xv = grid.sum(axis=(1, 2))[ix, iv]
    p_yu = grid.sum(axis=(0, 3))[iy, iu]
    p_yv = grid.sum(axis=(0, 2))[iy, iv]
    p_y = grid.sum(axis=(0, 2, 3))[iy]
    p_u = grid.sum(axis=(0, 1, 3))[iu]
    by_marginals = float(p_xu - p_xv + p_yu + p_yv - p_y - p_u)

    if abs(by_average - by_marginals) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"ensemble CH paths disagree at {xi}: {by_average!r} vs {by_marginals!r}"
        )
    return by_average


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


def chsh_verdict(value: float) -> Verdict:
    """|S| <= 2 check; exact saturation reports as a boundary case."""
    excess = abs(value) - CHSH_BOUND
    if excess > BOUNDARY_TOL:
        return Verdict("violated", excess)
    if abs(excess) <= BOUNDARY_TOL:
        return Verdict("satisfied (boundary)", 0.0)
    return Verdict("satisfied", -excess)


def ch_verdict(value: float) -> Verdict:
    """0 >= C >= -1 check; saturated bounds report as boundary cases."""
    if value > CH_UPPER_BOUND + BOUNDARY_TOL:
        return Verdict("violated", value - CH_UPPER_BOUND, bound="upper")
    if value < CH_LOWER_BOUND - BOUNDARY_TOL:
        return Verdict("violated", CH_LOWER_BOUND - value, bound="lower")
    if abs(value - CH_UPPER_BOUND) <= BOUNDARY_TOL or abs(value - CH_LOWER_BOUND) <= BOUNDARY_TOL:
        return Verdict("satisfied (boundary)", 0.0)
    return Verdict("satisfied", min(CH_UPPER_BOUND - value, value - CH_LOWER_BOUND))


@dataclass(frozen=True)
class ChshReport:
    """Everything the CHSH test produces for one state and measurement."""

    s_values: np.ndarray  # (16,), s(xi)
    ensemble_S: float
    single_shot_S: np.ndarray  # (16,), indexed by xi'
    bound: float = CHSH_BOUND

    def as_dict(self) -> dict:
        return {
            "s_values": [float(s) for s in self.s_values],
            "ensemble_S": self.ensemble_S,
            "single_shot_S": [float(s) for s in self.single_shot_S],
            "bound": self.bound,
        }


@dataclass(frozen=True)
class ChReport:
    """CH test results: the (xi, xi') grid and the 16 exact values."""

    single_shot_C: np.ndarray  # (16, 16)
    ensemble_C: np.ndarray  # (16,)
    bounds: tuple[float, float] = (CH_UPPER_BOUND, CH_LOWER_BOUND)

    def as_dict(self) -> dict:
        return {
            "single_shot_C": [[float(c) for c in row] for row in self.single_shot_C],
            "ensemble_C": [float(c) for c in self.ensemble_C],
            "bounds": list(self.bounds),
        }


def chsh_report(kernel: InversionKernel, observed) -> ChshReport:
    """Build the CHSH report, verifying that the quasi-distribution average
    and the shot-weighted average of single-shot values coincide."""
    p = np.asarray(observed, dtype=float)
    q = invert_distribution(kernel, p)
    s_values = np.array([float(s_of_xi(xi)) for xi in OUTCOMES])
    table = single_shot_chsh_table(kernel)
    via_quasi = ensemble_chsh(q)
    via_shots = float(table @ p)
    if abs(via_quasi - via_shots) > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"ensemble CHSH decompositions disagree: {via_quasi!r} vs {via_shots!r}"
        )
    return ChshReport(s_values=s_values, ensemble_S=via_quasi, single_shot_S=table)


def ch_report(kernel: InversionKernel, observed) -> ChReport:
    """Build the CH report; ensemble values carry their own dual-path check."""
    grid = single_shot_ch_table(kernel)
    ensemble = np.array([ensemble_ch(kernel, observed, xi) for xi in OUTCOMES])
    return ChReport(single_shot_C=grid, ensemble_C=ensemble)


def classical_bounds_check(report) -> dict:
    """Per-quantity verdicts for a ChshReport or a ChReport."""
    if isinstance(report, ChshReport):
        return {
            "ensemble_S": chsh_verdict(report.ensemble_S).as_dict(),
            "single_shot_S": [chsh_verdict(float(s)).as_dict() for s in report.single_shot_S],
        }
    if isinstance(report, ChReport):
        flat = [ch_verdict(float(c)) for c in report.single_shot_C.ravel()]
        return {
            "ensemble_C": [ch_verdict(float(c)).as_dict() for c in report.ensemble_C],
            "single_shot_C": {
                "min": float(report.single_shot_C.min()),
                "max": float(report.single_shot_C.max()),
                "all_violated": all(v.status == "violated" for v in flat),
            },
        }
    raise TypeError(f"expected ChshReport or ChReport, got {type(report).__name__}")
