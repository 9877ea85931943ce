"""State-independent inversion from measured outcomes to sharp-observable
statistics.

For each observable the 2x2 kernel

    p(w | w') = (1 + w w' / gamma) / 2

undoes the unsharpness of the corresponding marginal exactly; entries turn
negative as soon as |gamma| < 1, which is what lets the inverted joint
distribution carry negativity. The joint 16x16 kernel is the product of the
four one-observable kernels. Applied to the observed statistics it yields a
signed quasi-distribution whose single-observable marginals, and all four
cross marginals pairing one A observable with one B observable, reproduce
the sharp Born probabilities exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, measurement
from .errors import ConsistencyError, InvalidDistribution, OutOfRange
from .measurement import SIGNS, GammaSet, JointPovm
from .observables import A_LABELS, B_LABELS, ObservableLabel, ObservableSet, SharpPovm


# w w' at each [w, w'] of a one-observable table, +1 first
SIGN_PRODUCTS = np.outer(SIGNS, SIGNS)


def kernel_1d(gamma: float) -> np.ndarray:
    """One-observable inversion table, indexed [w, w'] with +1 first.

    Columns sum to 1; the off-diagonal entries are negative for |gamma| < 1.
    """
    return 0.5 * (1.0 + SIGN_PRODUCTS / measurement.checked_gamma(gamma))


@dataclass(frozen=True)
class InversionKernel:
    """16x16 quasi-stochastic table p(xi | xi'), factorized per observable."""

    gammas: GammaSet
    table: np.ndarray  # [xi, xi'] in canonical outcome order

    def __post_init__(self):
        t = linalg.as_finite(self.table, (16, 16), "kernel table", ConsistencyError)
        require_column_sums(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def build_kernel(gammas: GammaSet) -> InversionKernel:
    """Product of the four one-observable kernels over all outcome pairs."""
    return InversionKernel(gammas, kernel_tables(gammas.as_tuple()))


def kernel_tables(gammas) -> np.ndarray:
    """The unchecked 16x16 kernel table of each gamma 4-vector of a stack (..., 4),
    x most significant; each entry is ((kx * ky) * ku) * kv, multiplied left to
    right as the nested np.kron product does, so the two agree bit for bit."""
    k = 0.5 * (1.0 + SIGN_PRODUCTS / np.asarray(gammas, dtype=float)[..., None, None])
    lead = k.shape[:-3]  # factor i spans axes i and 4 + i of (x, y, u, v, x', y', u', v')
    kx, ky, ku, kv = (k[..., i, :, :].reshape(lead + tuple(2 if a % 4 == i else 1 for a in range(8)))
                      for i in range(4))
    return (((kx * ky) * ku) * kv).reshape(lead + (16, 16))


def require_column_sums(tables: np.ndarray) -> None:
    """InversionKernel's column-sum check over a stack (..., 16, 16), naming the first failure."""
    worst = np.max(np.abs(tables.sum(axis=-2) - 1.0), axis=-1)
    linalg.require(worst, linalg.COLUMN_SUM_TOL,
                   lambda k: ConsistencyError(f"kernel column sums deviate from 1 by {float(worst[k]):.3e}"))


@dataclass(frozen=True)
class QuasiDistribution:
    """Signed 16-entry distribution over sharp outcomes, normalized to 1.

    Entries are kept unclamped, so negativity survives untouched. It shows
    that each qubit's two observables are incompatible on the state, not
    that the state is nonlocal: a product state can show it too.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = linalg.as_finite(self.entries, (16,), "quasi-distribution", InvalidDistribution)
        require_quasi_entries(e)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def min_entry(self) -> float:
        return float(self.entries.min())

    def is_negative(self) -> bool:
        return self.min_entry() < -linalg.NEGATIVITY_TOL

    def to_list(self) -> list[float]:
        """Entries in the canonical outcome order (documented in
        measurement.OUTCOME_ORDER_DOC), ready for JSON."""
        return self.entries.tolist()


def require_quasi_entries(entries: np.ndarray) -> None:
    """QuasiDistribution's sum check over a stack (..., 16): entries summing to 1,
    which a non-finite entry cannot. It names the first distribution that fails."""
    total = entries.sum(axis=-1)
    linalg.require(np.abs(total - 1.0), linalg.QUASI_SUM_TOL, lambda k: InvalidDistribution(
        f"quasi-distribution sums to {float(total[k])!r}, expected 1"))


def inverted_entries(kernel: InversionKernel, observed: np.ndarray) -> np.ndarray:
    """q = table @ p for each 16-vector p of a stack (..., 16), unchecked."""
    return (kernel.table @ observed[..., None])[..., 0]


def invert_distribution(kernel: InversionKernel, observed) -> QuasiDistribution:
    """Push observed statistics through the kernel: q = table @ observed.

    The kernel's unit column sums make this total-probability preserving
    whatever the input, so the output always sums to what went in.
    """
    p = linalg.as_finite(observed, (16,), "observed statistics", InvalidDistribution)
    return QuasiDistribution(inverted_entries(kernel, p))


def reconstructed_sharp_povm(kernel: InversionKernel, povm: JointPovm, label) -> SharpPovm:
    """Recover the sharp projective POVM of one observable from the unsharp
    marginal of the joint measurement.

    The weighted sum over measured outcomes telescopes the gamma factors
    away, so the result matches the projectors to rounding; SharpPovm
    validation enforces that on construction.
    """
    label = ObservableLabel(label)
    if kernel.gammas != povm.gammas:
        raise ConsistencyError(
            f"kernel gammas {kernel.gammas} do not match POVM gammas {povm.gammas}"
        )
    k1 = kernel_1d(kernel.gammas.of(label))
    plus, minus = (povm.marginal_element(label, wp) for wp in (+1, -1))
    return SharpPovm(*(k1[i, 0] * plus + k1[i, 1] * minus for i in (0, 1)))


def gamma_free_quasi(rho, settings: ObservableSet) -> QuasiDistribution:
    """The quasi-distribution that inversion yields at every admissible gamma.

    It is tr[rho (Q_A x Q_B)] with Q(w1, w2) = (I + w1 n1.sigma + w2 n2.sigma) / 4,
    the gamma = 1 subsystem operators. They are not positive, so no
    measurement has them as elements, but the traces exist for any settings,
    including those where no shared gamma is realizable.
    """
    a, b = measurement.subsystem_elements(settings, (1.0, 1.0, 1.0, 1.0))
    return QuasiDistribution(measurement.born_traces(rho.matrix, measurement.product_povm(a, b)).real)


def _clamped_marginal(q: QuasiDistribution, keep: tuple[str, ...], what: str) -> np.ndarray:
    """Sum q over the observables outside `keep`, clamping entries within
    linalg.MARGINAL_CLAMP_TOL below zero and raising for anything worse."""
    drop = tuple(axis for axis, name in enumerate("xyuv") if name not in keep)
    out = q.entries.reshape(2, 2, 2, 2).sum(axis=drop)  # axes x, y, u, v
    linalg.require(-out, linalg.MARGINAL_CLAMP_TOL, lambda _: ConsistencyError(
        f"{what} entry {float(out.min())!r} below -{linalg.MARGINAL_CLAMP_TOL:.0e}"))
    return np.where(out < 0.0, 0.0, out)


def cross_marginal(q: QuasiDistribution, pair) -> np.ndarray:
    """Two-observable marginal for one A observable and one B observable.

    Returns a (2, 2) array indexed [w_a, w_b] with +1 first. Exactness of
    the inversion guarantees nonnegativity up to rounding; entries within
    linalg.MARGINAL_CLAMP_TOL below zero are clamped and anything worse raises.
    """
    try:
        label_a, label_b = map(ObservableLabel, pair)
    except (TypeError, ValueError):  # not iterable, or not two items
        raise OutOfRange(f"cross marginal needs a pair of observable labels, got {pair!r}") from None
    if label_a not in A_LABELS or label_b not in B_LABELS:
        raise OutOfRange(
            f"cross marginal needs one A observable and one B observable, "
            f"got ({label_a.value}, {label_b.value})"
        )
    keep = (label_a.value, label_b.value)
    return _clamped_marginal(q, keep, f"cross marginal ({label_a.value}, {label_b.value})")


def single_marginal(q: QuasiDistribution, label) -> np.ndarray:
    """One-observable marginal, a (2,) vector with +1 first."""
    label = ObservableLabel(label)
    return _clamped_marginal(q, (label.value,), f"marginal {label.value}")
