"""Two-qubit density matrices used as test states.

Computational basis order is fixed globally as |00>, |01>, |10>, |11> with
subsystem A first; every matrix literal in the package relies on it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import linalg
from .errors import NotPSD, NotUnitTrace, OutOfRange, checked_instance, fill, record


class BellState(Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"

    @classmethod
    def _missing_(cls, value):  # every BellState(name) raises this, not Enum's ValueError
        raise OutOfRange(f"unknown Bell state {value!r}; expected one of {', '.join(b.value for b in cls)}")


_BELL_VECTORS = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}
_BELL_MATRICES = {which: np.outer(v, v.conj()) for which, v in _BELL_VECTORS.items()}


def density_matrices(entries, stack_axes: int = 0) -> np.ndarray:
    """Validate a 4x4 table, or a stack of them with stack_axes leading axes,
    as density matrices: finite, Hermitian, unit trace, positive
    semidefinite. Returns a complex copy.

    Each check runs over the whole stack; a failure raises OutOfRange,
    NotHermitian, NotUnitTrace or NotPSD naming the offending value of the
    first matrix that fails it.
    """
    m = linalg.as_finite(entries, (4, 4), "density matrix", dtype=complex, stack_axes=stack_axes)
    # the solver runs the Hermiticity check, so it comes before the trace's
    lam = linalg.eigvals_hermitian(m, what="density matrix")[..., 0]
    tr = np.trace(m, axis1=-2, axis2=-1)
    linalg.require(np.abs(tr - 1.0), linalg.TRACE_TOL,
                   lambda k: NotUnitTrace(f"density matrix: trace = {float(tr[k].real)!r}, expected 1"))
    linalg.require(-lam, -linalg.PSD_TOL, lambda k: NotPSD(
        f"density matrix: min eigenvalue = {float(lam[k])!r} below {linalg.PSD_TOL:.0e}"))
    return m


@record
class DensityMatrix:
    """Validated two-qubit state: Hermitian, unit trace, positive semidefinite."""

    def __init__(self, matrix: np.ndarray):
        m = density_matrices(matrix)
        m.setflags(write=False)
        fill(self, m)


def bell_state(which: BellState) -> DensityMatrix:
    """Rank-1 projector onto the named maximally entangled state."""
    return DensityMatrix(_BELL_MATRICES[BellState(which)])


def werner_state(eta: float) -> DensityMatrix:
    """eta * singlet + (1 - eta) * I/4. Entangled for eta > 1/3, violates
    CHSH at optimal angles for eta > 1/sqrt(2)."""
    eta = float(linalg.as_finite(eta, (), "werner eta"))
    if not 0.0 <= eta <= 1.0:
        raise OutOfRange(f"werner eta = {eta!r} outside [0, 1]")
    return DensityMatrix(werner_matrices(eta))


def werner_matrices(etas) -> np.ndarray:
    """werner_state's matrix for each eta of an array, shape (*etas.shape,
    4, 4), neither range-checked nor validated."""
    eta = np.asarray(etas, dtype=float)[..., None, None]
    return eta * _BELL_MATRICES[BellState.PSI_MINUS] + (1.0 - eta) * linalg.I4 / 4.0


def custom_state(entries) -> DensityMatrix:
    """Validate an arbitrary 4x4 table as a density matrix.

    Raises OutOfRange, NotHermitian, NotUnitTrace or NotPSD naming the
    violated invariant and the offending value.
    """
    return DensityMatrix(entries)


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Haar-ish random full-rank state, rho = G G^H / tr(G G^H)."""
    rng = checked_instance(rng, np.random.Generator, "rng")
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


linalg.read_only(globals())
