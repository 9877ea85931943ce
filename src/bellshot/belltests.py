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

import numpy as np

from . import inversion, linalg, measurement
from .errors import ConsistencyError, InvalidDistribution, checked_instance, fill, record
from .inversion import InversionKernel, QuasiDistribution
from .measurement import OUTCOMES, PAIR_MARGINALS, OutcomeIndex
from .states import DensityMatrix

CHSH_BOUND = 2.0
CH_UPPER_BOUND = 0.0
CH_LOWER_BOUND = -1.0
# (low, high, names) of each bound_rule: |S| <= 2 names no bound, 0 >= C >= -1 its upper and lower
CHSH_RULE = (-CHSH_BOUND, CHSH_BOUND, (None, None))
CH_RULE = (CH_LOWER_BOUND, CH_UPPER_BOUND, ("upper", "lower"))
STATUSES = np.array(["satisfied", "satisfied (boundary)", "violated"])

# measurement's signs of x, y, u and v at each outcome, as floats of shape (4, 16)
OUTCOME_SIGNS = measurement.OUTCOME_SIGNS.T.astype(float)
SIGNS_X, SIGNS_Y, SIGNS_U, SIGNS_V = OUTCOME_SIGNS
# The sign pattern of each outcome pair (xi, xi'), shape (16, 16): the index of the outcome
# whose signs are w(xi) w(xi') of x, y, u and v, which is xi's index XOR xi''s, one bit per
# sign. A single-shot CH value depends on the pair through its pattern alone, so each route
# computes 16 pattern values and spreads them over the grid.
SIGN_PATTERN = np.arange(16)[:, None] ^ np.arange(16)
SIGN_COLUMN = np.array(measurement.SIGNS, dtype=float)[:, None]  # +1 then -1, one per row
S_VALUES = SIGNS_X * SIGNS_U - SIGNS_X * SIGNS_V + SIGNS_Y * SIGNS_U + SIGNS_Y * SIGNS_V

# sigma_mu x sigma_nu, indexed [mu, nu], for sigma_0 = I and the three Pauli matrices, and
# laid out so that rho's 16 entries, row by row, times PAULI_TRACES give tr[rho sigma_mu x sigma_nu]
PAULIS = (linalg.I2, linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z)
_P = np.array(PAULIS)  # kron(s, t)[2i + k, 2j + l] = s[i, j] t[k, l], for every (s, t) at once
PAULI_PRODUCTS = (_P[:, None, :, None, :, None] * _P[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
PAULI_TRACES = PAULI_PRODUCTS.transpose(3, 2, 0, 1).reshape(16, 16)


def s_of_xi(xi: OutcomeIndex) -> int:
    """xu - xv + yu + yv, always +-2 for sign-valued arguments."""
    xi = checked_instance(xi, OutcomeIndex, "xi")
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

    def disagree(_):
        k = np.unravel_index(np.argmax(gap), gap.shape)  # the first NaN, if there is one
        return ConsistencyError(
            f"{what} paths disagree at {where(*k)}: {float(first[k])!r} vs {float(second[k])!r}")

    linalg.require(gap.max(), linalg.DUAL_PATH_TOL, disagree)


def ensemble_chsh(q: QuasiDistribution) -> float:
    """CHSH value as the average of s(xi) over the quasi-distribution."""
    q = checked_instance(q, QuasiDistribution, "quasi", InvalidDistribution)
    return float(ensemble_chsh_values(q.entries))


def ensemble_chsh_values(entries: np.ndarray) -> np.ndarray:
    """ensemble_chsh for each quasi-distribution of a stack (..., 16)."""
    return _in_order_sum(S_VALUES * entries)


def single_shot_chsh_table(kernel: InversionKernel) -> np.ndarray:
    """All 16 single-shot CHSH values in canonical outcome order."""
    kernel = checked_instance(kernel, InversionKernel, "kernel")
    return single_shot_chsh_tables(kernel.table, kernel.gammas.as_tuple())


def single_shot_chsh_tables(tables: np.ndarray, gammas) -> np.ndarray:
    """single_shot_chsh_table for each table of a stack (..., 16, 16) and its
    gammas (..., 4). The sum of s(xi) against each kernel column must match the
    closed form built from the gammas, or the kernel and algebra have diverged."""
    by_sum = S_VALUES @ tables
    g = np.asarray(gammas, dtype=float)
    gx, gy, gu, gv = (g[..., i, None] for i in range(4))
    closed = (
        gy * gv * SIGNS_X * SIGNS_U
        - gy * gu * SIGNS_X * SIGNS_V
        + gx * gv * SIGNS_Y * SIGNS_U
        + gx * gu * SIGNS_Y * SIGNS_V
    ) / (gx * gy * gu * gv)
    require_agreement("single-shot CHSH", by_sum, closed, lambda *k: OUTCOMES[k[-1]])
    return closed


def single_shot_ch_table(kernel: InversionKernel) -> np.ndarray:
    """The full (xi, xi') grid of single-shot CH values, shape (16, 16)."""
    return single_shot_ch_tables(checked_instance(kernel, InversionKernel, "kernel").gammas.as_tuple())


def single_shot_ch_tables(gammas) -> np.ndarray:
    """single_shot_ch_table for each gamma 4-vector of a stack (..., 4): the CH pair
    probabilities factorize over the one-observable kernels, and are checked
    against the closed form -1/2 plus the four gamma-weighted sign products."""
    g = np.asarray(gammas, dtype=float)
    gx, gy, gu, gv = factors = [g[..., i, None] for i in range(4)]
    x, y, u, v = OUTCOME_SIGNS  # w(xi) w(xi') at each sign pattern
    # kernel_1d(gamma)[w, w'] = (1 + w w' / gamma) / 2 at every pattern, bit for bit
    px, py, pu, pv = (0.5 * (1.0 + ww / gamma) for ww, gamma in zip(OUTCOME_SIGNS, factors))
    by_substitution = (px * pu - px * pv + py * pu + py * pv - py - pu)[..., SIGN_PATTERN]

    closed = (
        -0.5
        - (x * v) / (4.0 * gx * gv)
        + (y * v) / (4.0 * gy * gv)
        + (x * u) / (4.0 * gx * gu)
        + (y * u) / (4.0 * gy * gu)
    )[..., SIGN_PATTERN]
    require_agreement("single-shot CH", by_substitution, closed,
                      lambda *k: f"({OUTCOMES[k[-2]]}, {OUTCOMES[k[-1]]})")
    return closed


def single_shot_ch(kernel: InversionKernel, xi: OutcomeIndex, xi_prime: OutcomeIndex) -> float:
    """CH value inferred from one measured outcome, for target signs xi."""
    xi = checked_instance(xi, OutcomeIndex, "xi")
    xi_prime = checked_instance(xi_prime, OutcomeIndex, "xi_prime")
    return float(single_shot_ch_table(kernel)[xi.to_index(), xi_prime.to_index()])


def pauli_correlations(rho) -> np.ndarray:
    """C[mu, nu] = tr[rho sigma_mu x sigma_nu], sigma_0 = I, for one 4x4 state or a stack
    (..., 4, 4): row 0 is B's Bloch vector, column 0 A's, and C[1:, 1:] the correlation
    matrix T of Horodecki et al., Phys. Lett. A 200, 340 (1995). It reads rho and the
    Pauli matrices only: no POVM, kernel, inversion or bloch_operator. A stack is one
    (..., 16) @ (16, 16) matmul."""
    rho = np.asarray(rho)
    return (rho.reshape(rho.shape[:-2] + (16,)) @ PAULI_TRACES).real.reshape(rho.shape)


def pair_probabilities(c, blochs, gammas=(1.0, 1.0, 1.0, 1.0)) -> np.ndarray:
    """P[..., a, b, i, j] = tr[rho E_a(w_i) x E_b(w_j)] for the A directions a of (x, y), the
    B directions b of (u, v) and w = (+1, -1), with E_n(w) = (I + w gamma n.sigma) / 2: all
    four A-B pairs at once, from rho's pauli_correlations c (..., 4, 4), the Bloch vectors x,
    y, u, v (4, 3) and their gammas (..., 4), as (1, w_a gamma_a a) . c . (1, w_b gamma_b b) / 4.
    gamma = 1 is a sharp measurement. The bilinear form is one (16, 16) map per gamma 4-vector,
    M[(mu, nu), (a, i, b, j)] = L[a, i, mu] R[b, j, nu] / 4, applied to c's 16 entries, so a
    stack of states at one gamma 4-vector shares it."""
    n = np.zeros((4, 4))
    n[:, 1:] = blochs
    rows = (np.asarray(gammas, dtype=float)[..., None] * n)[..., None, :] * (0.5 * SIGN_COLUMN)
    rows[..., 0] = 0.5  # (1, w gamma n) / 2 per observable and sign w: (..., 4, 2, 4)
    lead = rows.shape[:-3]
    left, right = (rows[..., k:k + 2, :, :].reshape(lead + (4, 4)).swapaxes(-1, -2) for k in (0, 2))
    m = (left[..., :, None, :, None] * right[..., None, :, None, :]).reshape(lead + (16, 16))
    c = np.asarray(c)
    p = c.reshape(c.shape[:-2] + (1, 16)) @ m  # (..., 1, a and i and b and j)
    return p.reshape(p.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2)


@record
class Verdict:
    """Outcome of a classical-bound check for one scalar quantity: "satisfied", "satisfied
    (boundary)" or "violated" by margin, and the bound a violation broke, where one is named."""

    def __init__(self, status: str, margin: float, bound: str | None = None):
        fill(self, status, margin, bound)

    def as_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


def bound_rule(values, low, high, names, violated_only=False):
    """The one classical-bound rule, low <= value <= high, as (status, margin, bound) arrays
    over a float array of values. Past the upper, then the lower bound by more than BOUNDARY_TOL
    is "violated" by that margin, bound as names (upper, lower) name it; within it of one is
    "satisfied (boundary)", margin 0; else "satisfied" by the gap to the nearer bound.
    With violated_only, only the violation test: whether each value is "violated"."""
    over, under = values - high, low - values
    gap = np.maximum(over, under)  # how far outside [low, high]; -gap is the distance inside
    tol = linalg.BOUNDARY_TOL
    if violated_only:
        return gap > tol
    violated, boundary = gap > tol, -gap <= tol  # a violation passes the boundary test too
    status = STATUSES[np.where(violated, 2, boundary)]
    margin = np.where(violated, gap, np.where(boundary, 0.0, -gap))
    return status, margin, np.array([None, *names], dtype=object)[np.where(over > tol, 1, 2 * violated)]


def _verdicts(values: np.ndarray, rule) -> list[dict]:
    """bound_rule's verdict under rule, as Verdict.as_dict gives it, on each entry of values,
    a float array that linalg.as_finite admitted: a NaN, past every comparison, would read
    "satisfied"."""
    status, margin, bound = (np.ravel(a).tolist() for a in bound_rule(values, *rule))
    return [{"status": s, "margin": m} if b is None else {"status": s, "margin": m, "bound": b}
            for s, m, b in zip(status, margin, bound)]


def chsh_verdict(value: float) -> Verdict:
    """|S| <= 2 check: bound_rule on [-2, 2], naming no bound."""
    return Verdict(**_verdicts(linalg.as_finite(value, (), "finite verdict test value"), CHSH_RULE)[0])


def ch_verdict(value: float) -> Verdict:
    """0 >= C >= -1 check: bound_rule on [-1, 0]."""
    return Verdict(**_verdicts(linalg.as_finite(value, (), "finite verdict test value"), CH_RULE)[0])


@record
class ChshReport:
    """Everything the CHSH test produces for one state and measurement: s(xi), the
    ensemble S and the single-shot S indexed by xi', both arrays (16,)."""

    bound = CHSH_BOUND  # a class constant, not a field

    def __init__(self, s_values: np.ndarray, ensemble_S: float, single_shot_S: np.ndarray):
        fill(self, s_values, ensemble_S, single_shot_S)

    def as_dict(self) -> dict:
        return {
            "s_values": self.s_values.tolist(),
            "ensemble_S": self.ensemble_S,
            "single_shot_S": self.single_shot_S.tolist(),
            "bound": self.bound,
        }


@record
class ChReport:
    """CH test results: the (xi, xi') grid, (16, 16), and the 16 exact values."""

    bounds = (CH_UPPER_BOUND, CH_LOWER_BOUND)  # a class constant, not a field

    def __init__(self, single_shot_C: np.ndarray, ensemble_C: np.ndarray):
        fill(self, single_shot_C, ensemble_C)

    def as_dict(self) -> dict:
        return {
            "single_shot_C": self.single_shot_C.tolist(),
            "ensemble_C": self.ensemble_C.tolist(),
            "bounds": list(self.bounds),
        }


def chsh_report(kernel: InversionKernel, observed, quasi) -> ChshReport:
    """Build the CHSH report from the observed statistics and quasi, their inversion through
    kernel, verifying that the quasi-distribution average and the shot-weighted average of
    single-shot values coincide."""
    p = linalg.as_finite(observed, (16,), "observed statistics", InvalidDistribution)
    via_quasi = ensemble_chsh(quasi)
    table = single_shot_chsh_table(kernel)
    require_agreement("ensemble CHSH", via_quasi, table @ p, lambda: "S")
    return ChshReport(s_values=S_VALUES, ensemble_S=via_quasi, single_shot_S=table)


def ch_report(kernel: InversionKernel, observed, quasi) -> ChReport:
    """Build the CH report from the observed statistics and quasi, their inversion through
    kernel. The exact value for each of the 16 target signs xi comes along two routes that
    must agree to rounding: the observed-weighted average of single-shot values, and the CH
    combination evaluated on the quasi-distribution's A-B pair marginals, mapped by
    PAIR_MARGINALS (they equal the sharp Born probabilities)."""
    p = linalg.as_finite(observed, (16,), "observed statistics", InvalidDistribution)
    grid = single_shot_ch_table(kernel)
    by_average = _in_order_sum(grid * p)
    q = checked_instance(quasi, QuasiDistribution, "quasi", InvalidDistribution).entries
    xu, xv, yu, yv = (q @ PAIR_MARGINALS).reshape(4, 2, 2)  # each [i, j]
    ix, iy, iu, iv = measurement.SIGN_BITS.T  # each sign's kernel_1d index, 0 for +1
    by_marginals = (xu[ix, iu] - xv[ix, iv] + yu[iy, iu] + yv[iy, iv]
                    - yu.sum(axis=1)[iy] - xu.sum(axis=0)[iu])
    require_agreement("ensemble CH", by_average, by_marginals, lambda j: OUTCOMES[j])
    return ChReport(single_shot_C=grid, ensemble_C=by_average)


def classical_bounds_check(report) -> dict:
    """Per-quantity verdicts for a ChshReport or a ChReport, one bound_rule call per array.
    Each array is admitted by linalg.as_finite at its shape, which raises OutOfRange."""
    if isinstance(checked_instance(report, (ChshReport, ChReport), "report"), ChshReport):
        values = np.append(linalg.as_finite(report.ensemble_S, (), "ensemble_S"),
                           linalg.as_finite(report.single_shot_S, (16,), "single_shot_S"))
        ensemble, *single_shot = _verdicts(values, CHSH_RULE)
        return {"ensemble_S": ensemble, "single_shot_S": single_shot}
    grid = linalg.as_finite(report.single_shot_C, (16, 16), "single_shot_C")
    return {
        "ensemble_C": _verdicts(linalg.as_finite(report.ensemble_C, (16,), "ensemble_C"), CH_RULE),
        "single_shot_C": {
            "min": float(grid.min()),
            "max": float(grid.max()),
            "all_violated": bool(bound_rule(grid, *CH_RULE, violated_only=True).all()),
        },
    }


def require_born_pair_marginals(rho, settings, routes: dict, point=lambda *k: "") -> None:
    """The kernel-free route check: the A-B pair marginals of each routes[name] = (entries, gammas)
    against their Born values at those gammas (1 is sharp), from the pauli_correlations of rho, a
    4x4 density matrix or a stack (..., 4, 4) of them, and the Bloch vectors alone. Each route's
    entries are (..., 16), one distribution per state, and point(*k) names state k of a stack. It
    reads no POVM, kernel or bloch_operator, so their wiring faults show."""
    entries, gammas = zip(*routes.values())
    c = pauli_correlations(rho)
    blochs = (settings.x.bloch, settings.y.bloch, settings.u.bloch, settings.v.bloch)
    stacked = np.array(gammas, dtype=float).reshape((len(gammas),) + (1,) * (c.ndim - 2) + (4,))
    born = pair_probabilities(c, blochs, stacked)

    def where(r, *k):
        *state, a, b, i, j = k
        return (f"{point(*state)}{list(routes)[r]} ({'xy'[a]}, {'uv'[b]}) "
                f"= ({measurement.SIGNS[i]:+d}, {measurement.SIGNS[j]:+d})")

    marginals = (np.array(entries) @ PAIR_MARGINALS).reshape(born.shape)
    require_agreement("A-B pair marginal", marginals, born, where)


def ensemble_analysis(rho, settings, povm, kernel, chsh_table, point=lambda *k: ""):
    """(p, q, S) of a state or a stack rho (..., 4, 4) under povm and kernel, with q's sums, S's two
    routes and p's and q's Born pair marginals checked; point(*k) names state k, "" a single one."""
    p = measurement.born_probabilities(rho, povm)
    q = inversion.inverted_entries(kernel, p)
    inversion.require_quasi_entries(q)
    s = ensemble_chsh_values(q)
    require_agreement("ensemble CHSH", s, p @ chsh_table, lambda *k: point(*k).rstrip() or "S")
    require_born_pair_marginals(rho, settings, {"observed": (p, povm.gammas.as_tuple()),
                                                "quasi": (q, (1.0,) * 4)}, point)
    return p, q, s


def exact_analysis(state, settings, gammas):
    """The exact analysis of one configuration, without I/O, as (kernel, observed, quasi, chsh,
    ch): ensemble_analysis of state under the joint POVM and its kernel, and both reports."""
    povm, kernel = measurement.joint_povm(settings, gammas), inversion.build_kernel(gammas)
    rho, table = checked_instance(state, DensityMatrix, "state").matrix, single_shot_chsh_table(kernel)
    observed, q, s = ensemble_analysis(rho, settings, povm, kernel, table)
    quasi = QuasiDistribution(q)
    return kernel, observed, quasi, ChshReport(S_VALUES, float(s), table), ch_report(kernel, observed, quasi)


linalg.read_only(globals())
