"""Joint unsharp measurement of two incompatible observables per subsystem.

Each subsystem carries a four-outcome POVM whose element for outcomes
(w1', w2') is

    (I + gamma_1 w1' n1.sigma + gamma_2 w2' n2.sigma) / 4 .

Its marginals are the unsharp versions (I + gamma w' n.sigma) / 2 of the
two sharp observables, so the measured record carries complete (if noisy)
information about both at once. The full apparatus is the 16-outcome
product of subsystem A's and subsystem B's POVMs. Positivity of every
element is checked numerically at construction; for an orthogonal pair it
is equivalent to gamma_1^2 + gamma_2^2 <= 1.

Outcome ordering convention, stated once by SIGN_BITS, from which every sign array and
marginal map is read: a four-tuple (x, y, u, v) of signs maps to index
8*[x<0] + 4*[y<0] + 2*[u<0] + [v<0], i.e. lexicographic with +1 sorting before -1.
"""

from __future__ import annotations

import numpy as np

from . import linalg, observables
from .errors import ConsistencyError, GammaOutOfRange, NotPositive, OutOfRange, checked_instance, fill, record
from .observables import ObservableLabel, ObservableSet
from .states import DensityMatrix

# |prod gamma_i| at which a kernel column sum's rounding reaches linalg.COLUMN_SUM_TOL
GAMMA_MIN = 16 * 2.0**-53 / linalg.COLUMN_SUM_TOL


def gamma_in_range(gamma) -> np.ndarray:
    """Whether GAMMA_MIN <= |gamma| <= 1, elementwise, which NaN and infinities fail:
    the one range rule for an unsharpness factor."""
    a = np.abs(gamma)
    return (GAMMA_MIN <= a) & (a <= 1.0)


def checked_gamma(gamma, name: str = "gamma") -> float:
    """gamma as a float, if it is finite and gamma_in_range admits it. GammaOutOfRange names name."""
    g = float(linalg.as_finite(gamma, (), name, GammaOutOfRange))
    if not gamma_in_range(g):
        raise GammaOutOfRange(f"{name} = {g!r}: |gamma| must lie in [{GAMMA_MIN:g}, 1]")
    return g


# SIGN_BITS[xi] holds [x<0], [y<0], [u<0] and [v<0] at outcome index xi, the bits of xi
# from the most significant, and OUTCOME_SIGNS[xi] the signs (x, y, u, v) themselves
SIGN_BITS = np.arange(16)[:, None] >> np.arange(3, -1, -1) & 1
OUTCOME_SIGNS = 1 - 2 * SIGN_BITS
SIGNS = tuple(OUTCOME_SIGNS[:2, 3].tolist())  # +1 then -1, v's at outcomes 0 and 1
PAIR_ORDER = tuple(map(tuple, OUTCOME_SIGNS[:4, 2:].tolist()))  # (u, v) of the first four
# w1 and w2 of each pair, as (2, 4, 1, 1) to scale a stack of four 2x2 matrices
PAIR_SIGNS = OUTCOME_SIGNS[:4, 2:].T.astype(float)[..., None, None]
# PAIR_MARGINALS[xi, (a, b, i, j)] is 1 where outcome xi has sign bit i on the A observable a
# of (x, y) and j on the B observable b of (u, v): p @ PAIR_MARGINALS is p's A-B pair marginals
PAIR_MARGINALS = np.array([(SIGN_BITS[:, a] == i) & (SIGN_BITS[:, b] == j)
                           for a in (0, 1) for b in (2, 3) for i in (0, 1) for j in (0, 1)], dtype=float).T

OUTCOME_ORDER_DOC = (
    "outcomes (x, y, u, v) ordered lexicographically with +1 before -1; "
    "index = 8*[x=-1] + 4*[y=-1] + 2*[u=-1] + [v=-1]"
)


@record
class OutcomeIndex:
    """One joint outcome, four signs (x, y, u, v), each +-1."""

    def __init__(self, x: int, y: int, u: int, v: int):
        fill(self, *(observables.checked_sign(w, f"outcome component {name}")
                     for name, w in zip("xyuv", (x, y, u, v))))

    def to_index(self) -> int:
        return _INDEX_OF[self]

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.u, self.v)


OUTCOMES = tuple(OutcomeIndex(*signs) for signs in OUTCOME_SIGNS.tolist())
_INDEX_OF = {**{i: i for i in range(16)}, **{xi: i for i, xi in enumerate(OUTCOMES)}}


def as_indices(shots) -> np.ndarray:
    """Shots given as a 1-D int array, ints or OutcomeIndex, as int64 indices. Booleans are
    refused, though numpy's safe cast and the index lookup would read them as 1 and 0."""
    try:
        if isinstance(shots, np.ndarray):
            booleans = shots.dtype == np.bool_
        else:
            shots = list(shots)
            booleans = any(isinstance(xi, (bool, np.bool_)) for xi in shots)
            shots = np.array([_INDEX_OF[xi] for xi in shots], dtype=np.int64)
        idx = shots.astype(np.int64, casting="safe", copy=False)
    except (KeyError, TypeError) as exc:
        raise OutOfRange(f"not an outcome index or OutcomeIndex: {exc}") from None
    if booleans:
        raise OutOfRange("shots are booleans, not outcome indices")
    if idx.ndim != 1:
        raise OutOfRange(f"shots have shape {idx.shape}, expected one outcome index per shot")
    if idx.size and not 0 <= idx.min() <= idx.max() <= 15:
        raise OutOfRange(f"shot indices span {idx.min()}..{idx.max()}, outside 0..15")
    return idx


@record
class GammaSet:
    """Unsharpness factors of the four marginal observables.

    Each satisfies |gamma| <= 1 and |gamma_x gamma_y gamma_u gamma_v| >=
    GAMMA_MIN, the inversion's amplification floor. The joint-measurement
    constraint for an orthogonal pair (gamma_1^2 + gamma_2^2 <= 1) is not
    imposed here; it emerges from the positivity check when the POVM is
    actually built.
    """

    def __init__(self, gamma_x: float, gamma_y: float, gamma_u: float, gamma_v: float):
        raw = [gamma_x, gamma_y, gamma_u, gamma_v]
        try:  # the four factors in one pass
            g = linalg.as_finite(raw, (4,), "gammas", GammaOutOfRange).tolist()
        except GammaOutOfRange:  # checked_gamma names the factor at fault
            g = [checked_gamma(value, name) for value, name in zip(raw, self._fields)]
        if not GammaSet.admits(g):
            for value, name in zip(g, self._fields):  # a factor out of range is named before the product
                checked_gamma(value, name)
            product = abs(g[0] * g[1] * g[2] * g[3])
            raise GammaOutOfRange(f"|gamma_x gamma_y gamma_u gamma_v| = {product:.4g} must be at least "
                                  f"{GAMMA_MIN:.4g} (|gamma| >= {GAMMA_MIN ** 0.25:.4g} at equal gammas)")
        fill(self, *g)

    @staticmethod
    def equal(gamma: float) -> "GammaSet":
        return GammaSet(gamma, gamma, gamma, gamma)

    @staticmethod
    def admits(gammas) -> np.ndarray:
        """Whether GammaSet admits each row (gamma_x, gamma_y, gamma_u, gamma_v) of gammas:
        every factor in range, and |gamma_x gamma_y gamma_u gamma_v| >= GAMMA_MIN multiplied
        in that order. The one rule it applies, over any stack of rows at once."""
        g = np.asarray(gammas, dtype=float)
        in_range = gamma_in_range(g).all(axis=-1)
        g = np.where(in_range[..., None], g, 1.0)  # so that no refused row overflows its product
        return in_range & (np.abs(g[..., 0] * g[..., 1] * g[..., 2] * g[..., 3]) >= GAMMA_MIN)

    def of(self, label) -> float:
        return getattr(self, f"gamma_{ObservableLabel(label).value}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.gamma_x, self.gamma_y, self.gamma_u, self.gamma_v)


def subsystem_elements(settings: ObservableSet, gammas) -> np.ndarray:
    """(I + g1 w1 n1.sigma + g2 w2 n2.sigma) / 4 for (w1, w2) in PAIR_ORDER, for the pair
    (n1, n2) = (x, y) of subsystem A and (u, v) of B, not checked for positivity: shape
    (..., 2, 4, 2, 2), A then B, for gammas (..., 4) ordered x, y, u, v."""
    # n1.sigma and n2.sigma of each subsystem, as (subsystem, 1, 2, 2) against PAIR_SIGNS
    op1 = np.array([[settings.x.operator()], [settings.u.operator()]])
    op2 = np.array([[settings.y.operator()], [settings.v.operator()]])
    g = np.asarray(gammas, dtype=float)
    g1, g2 = (g[..., i::2, None, None, None] for i in (0, 1))  # (..., subsystem, 1, 1, 1)
    return 0.25 * (linalg.I2 + (g1 * PAIR_SIGNS[0]) * op1 + (g2 * PAIR_SIGNS[1]) * op2)


def nonpositive_elements(settings: ObservableSet, gammas):
    """subsystem_elements, each one's smallest eigenvalue (one batched eigensolve over
    both subsystems) and whether that is below linalg.PSD_TOL, the one positivity rule
    of a POVM."""
    elements = subsystem_elements(settings, gammas)
    lam = linalg.eigvals_hermitian(elements)[..., 0]
    return elements, lam, lam < linalg.PSD_TOL


def realizable(settings: ObservableSet, gammas) -> np.ndarray:
    """Whether joint_povm builds at each gamma 4-vector of a stack (..., 4); only
    non-positivity reads False, and any other failure raises."""
    return ~np.any(nonpositive_elements(settings, gammas)[2], axis=(-2, -1))


def product_povm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All 16 products kron(A(x', y'), B(u', v')), canonically ordered."""
    # axes (x'y', u'v', row A, row B, column A, column B)
    product = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(16, 4, 4)
    product.setflags(write=False)
    return product


def born_traces(rho: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """tr[rho E] for each 4x4 matrix rho of a stack (..., 4, 4) and each
    operator E of a stack (k, 4, 4), as complex numbers of shape (..., k).
    One 2-D matmul of every rho's rows, stacked, against [E_0 | ... | E_k-1]
    gives the entries of every rho @ E (a stacked matmul is a loop of small
    products, several times slower); each diagonal adds as (d0 + d1) + (d2 + d3),
    np.trace's order, so the traces keep their bits (a sum over the strided
    diagonal would not)."""
    k = len(operators)
    rows = rho.reshape(-1, 4) @ operators.transpose(1, 0, 2).reshape(4, 4 * k)
    prod = rows.reshape(*rho.shape[:-2], 4, k, 4)
    d0, d1, d2, d3 = (prod[..., i, :, i] for i in range(4))
    return (d0 + d1) + (d2 + d3)


@record
class JointPovm:
    """Subsystem POVMs, each (4, 2, 2) over (x', y') or (u', v') in PAIR_ORDER, plus
    their 16-outcome product, (16, 4, 4) in canonical outcome order."""

    def __init__(self, gammas: GammaSet, subsystem_a: np.ndarray, subsystem_b: np.ndarray,
                 product: np.ndarray):
        fill(self, gammas, subsystem_a, subsystem_b, product)


def joint_povm(settings: ObservableSet, gammas: GammaSet) -> JointPovm:
    """Assemble the full measurement for the given settings. Both subsystems' elements
    are built as one stack and checked by one eigensolve; NotPositive names the first
    element whose smallest eigenvalue falls below linalg.PSD_TOL, A's before B's, in
    PAIR_ORDER, with its eigenvalue and its subsystem's gammas."""
    checked_instance(settings, ObservableSet, "settings")
    g = checked_instance(gammas, GammaSet, "gammas").as_tuple()
    elements, lam, _ = nonpositive_elements(settings, g)

    def unphysical(k):
        subsystem, element = k
        w1, w2 = PAIR_ORDER[element]
        g1, g2 = g[2 * subsystem:2 * subsystem + 2]
        return NotPositive(f"joint element({w1:+d},{w2:+d}) has min eigenvalue {float(lam[k])!r}; "
                           f"gammas ({g1}, {g2}) with these directions are unphysical")

    linalg.require(-lam, -linalg.PSD_TOL, unphysical)
    elements.setflags(write=False)
    a, b = elements
    return JointPovm(gammas, a, b, product_povm(a, b))


def observed_statistics(rho, povm: JointPovm) -> np.ndarray:
    """Outcome probabilities tr[rho * element] for all 16 outcomes.

    Entries within linalg.PROB_CLAMP_TOL below zero are clamped; anything more
    negative, or a total off by more than linalg.PROB_SUM_TOL, raises
    ConsistencyError since both indicate a broken POVM or state.
    """
    checked_instance(povm, JointPovm, "povm")
    probs = born_probabilities(checked_instance(rho, DensityMatrix, "state").matrix, povm)
    probs.setflags(write=False)
    return probs


def born_probabilities(rho: np.ndarray, povm: JointPovm) -> np.ndarray:
    """observed_statistics for each density matrix of a stack (..., 4, 4),
    shape (..., 16). Each check runs over the whole stack and names the
    first state that fails it."""
    traces = born_traces(rho, povm.product)
    imag = traces.imag

    def imaginary(k):
        i = int(np.argmax(np.abs(imag[k])))
        return ConsistencyError(f"probability {i} has imaginary part {float(imag[k][i])!r}")

    linalg.require(np.max(np.abs(imag), axis=-1), linalg.PROB_SUM_TOL, imaginary)
    probs = traces.real
    linalg.require(-probs, linalg.PROB_CLAMP_TOL, lambda k: ConsistencyError(
        f"observed probability {float(probs[k[:-1]].min())!r} below -{linalg.PROB_CLAMP_TOL:.0e}"))
    probs = np.where(probs < 0.0, 0.0, probs)
    total = probs.sum(axis=-1)
    linalg.require(np.abs(total - 1.0), linalg.PROB_SUM_TOL, lambda k: ConsistencyError(
        f"observed probabilities sum to {float(total[k])!r}, expected 1"))
    return probs


linalg.read_only(globals())
