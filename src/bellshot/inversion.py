"""State-independent inversion from measured outcomes to sharp-observable
statistics.

For each observable the 2x2 kernel

    p(w | w') = (1 + w w' / gamma) / 2

undoes the unsharpness of the corresponding marginal exactly; entries turn
negative as soon as |gamma| < 1, which is what lets the inverted joint
distribution carry negativity. The joint 16x16 kernel is the product of the
four one-observable kernels. Applied to the observed statistics it yields a
signed quasi-distribution whose four A-B pair marginals, q @
measurement.PAIR_MARGINALS, reproduce the sharp Born probabilities exactly.
"""

from __future__ import annotations

import numpy as np

from . import linalg, measurement
from .errors import ConsistencyError, InvalidDistribution, checked_instance, fill, record
from .measurement import SIGNS, GammaSet
from .observables import ObservableSet


# w w' at each [w, w'] of a one-observable table, +1 first
SIGN_PRODUCTS = np.outer(SIGNS, SIGNS)


def kernel_1d(gamma: float) -> np.ndarray:
    """One-observable inversion table, indexed [w, w'] with +1 first.

    Columns sum to 1; the off-diagonal entries are negative for |gamma| < 1.
    """
    return 0.5 * (1.0 + SIGN_PRODUCTS / measurement.checked_gamma(gamma))


@record
class InversionKernel:
    """16x16 quasi-stochastic table p(xi | xi') in canonical outcome order, factorized per observable."""

    def __init__(self, gammas: GammaSet, table: np.ndarray):
        checked_instance(gammas, GammaSet, "gammas")
        t = linalg.as_finite(table, (16, 16), "kernel table", ConsistencyError)
        require_column_sums(t)
        t.setflags(write=False)
        fill(self, gammas, t)


def build_kernel(gammas: GammaSet) -> InversionKernel:
    """Product of the four one-observable kernels over all outcome pairs."""
    gammas = checked_instance(gammas, GammaSet, "gammas")
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


@record
class QuasiDistribution:
    """Signed 16-entry distribution over sharp outcomes, normalized to 1.

    Entries are kept unclamped, so negativity survives untouched. It shows
    that each qubit's two observables are incompatible on the state, not
    that the state is nonlocal: a product state can show it too.
    """

    def __init__(self, entries: np.ndarray):
        e = linalg.as_finite(entries, (16,), "quasi-distribution", InvalidDistribution)
        require_quasi_entries(e)
        e.setflags(write=False)
        fill(self, e)

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
    return QuasiDistribution(inverted_entries(checked_instance(kernel, InversionKernel, "kernel"), p))


def gamma_free_quasi(rho, settings: ObservableSet) -> QuasiDistribution:
    """The quasi-distribution that inversion yields at every admissible gamma.

    It is tr[rho (Q_A x Q_B)] with Q(w1, w2) = (I + w1 n1.sigma + w2 n2.sigma) / 4,
    the gamma = 1 subsystem operators. They are not positive, so no
    measurement has them as elements, but the traces exist for any settings,
    including those where no shared gamma is realizable.
    """
    a, b = measurement.subsystem_elements(settings, (1.0, 1.0, 1.0, 1.0))
    return QuasiDistribution(measurement.born_traces(rho.matrix, measurement.product_povm(a, b)).real)


linalg.read_only(globals())
