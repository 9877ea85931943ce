"""Dense complex linear algebra for 2x2 and 4x4 Hermitian operators.

Matrices are plain ``numpy`` arrays of ``complex128``. There are no wrapper
classes at this level; Hermiticity and positivity are enforced by the
validating constructors that sit on top (density matrices, POVM elements).
Dimensions are fixed at 2 and 4, so nothing here is generic over size. The
checks run over any leading stack axes and, on failure, report the first
matrix of the stack that fails.

This bottom module also owns every numerical check of the package: the
tolerance table below; `require`, the one function that compares a gap with
its tolerance and raises; and `as_finite`, the one admission rule that turns
a numeric argument from outside into an array.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, OutOfRange

# Tolerances, one table for every check. A check fails where its gap is not within its
# tolerance, NaN included; a lower bound passes its negated value as the gap. u = 2**-53.
HERMITIAN_TOL = 1e-12  # max |M - M^H| of matrices built from O(1) entries, which round at u
PSD_TOL = -1e-10  # eigenvalue floor: a pure state's or a boundary element's exact zero rounds to ~u
TRACE_TOL = 1e-12  # |tr rho - 1|, a sum of four O(1) diagonal entries; also tr rho^2 against [1/4, 1]
BLOCH_NORM_TOL = 1e-12  # ||n| - 1| of a unit Bloch vector, normalized at about u
PROJECTOR_TOL = 1e-10  # |E^2 - E| of a sharp element; a projector rebuilt through a 1/gamma kernel
COMPLETENESS_TOL = 1e-12  # |E(+1) + E(-1) - I| of a sharp pair
# Rounding moves a kernel column sum by up to 16 u A, where A = prod 1/|gamma_i| is the
# column's absolute sum (Higham, Accuracy and Stability, ch. 3-4). 16 u A <= COLUMN_SUM_TOL
# gives A <= 562.9: |prod gamma_i| >= measurement.GAMMA_MIN; 0.2053 if equal.
COLUMN_SUM_TOL = 1e-12
PROB_CLAMP_TOL = 1e-12  # Born probabilities below zero by rounding of a 4x4 trace, clamped to 0
PROB_SUM_TOL = 1e-10  # |sum p - 1| and the imaginary part of each of 16 Born traces
QUASI_SUM_TOL = 1e-10  # |sum q - 1|: K's unit column sums carry p's sum through the inversion
NEGATIVITY_TOL = 1e-10  # how far below zero q's smallest entry must lie to count as negative
DUAL_PATH_TOL = 1e-10  # agreement of two independent routes to one value, the README's contract
# a test value this close to a classical bound reports as a boundary case; the same resolution
# holds an equal-gamma single-shot |S| to its closed form 2 / gamma^2
BOUNDARY_TOL = 1e-12
PROB_FLOOR = -1e-10  # floor of a probability handed to the sampler, before its clamp
PROB_SUM_SLACK = 1e-6  # |sum p - 1| of a vector handed to the sampler, which it renormalizes

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def read_only(namespace: dict) -> None:
    """Make every ndarray of a module's namespace, and every one a dict there holds,
    read-only. A module's tables are shared by all its callers: a caller that writes
    into a result holding one, as a ChshReport holds belltests.S_VALUES, would change
    every later analysis in the process."""
    for name, value in list(namespace.items()):
        for a in value.values() if isinstance(value, dict) and name != "__builtins__" else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)


def require(gap, tol, fail) -> None:
    """Raise fail(k) unless gap <= tol everywhere, where k indexes the first failing
    entry of gap in C order, or is () for a scalar gap. A NaN gap fails: no check
    can vouch for a value that is not a number."""
    if not isinstance(gap, np.ndarray):  # np.all on a scalar costs ~100x a plain compare
        if not gap <= tol:
            raise fail(())
    elif not (ok := gap <= tol).all():
        raise fail(np.unravel_index(np.argmin(ok), ok.shape))


def as_finite(value, shape: tuple, what: str, error=OutOfRange, dtype=float, stack_axes=0) -> np.ndarray:
    """Copy value into a dtype array of the given shape after stack_axes leading axes,
    with every entry finite, else raise error naming what. None reads as NaN; a value
    numpy cannot read (a ragged list, "abc", an int past float range) is refused too.

    Always copies, so freezing the result never locks a caller's array.
    """
    try:
        a = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not readable as numbers: {exc}") from None
    if a.shape[stack_axes:] != shape:
        raise error(f"{what} shape {a.shape}, expected {a.shape[:stack_axes] + shape}")
    if np.count_nonzero(finite := np.isfinite(a)) < a.size:  # a third of .all()'s cost
        require(~finite, 0, lambda k: error(
            f"{what}{list(map(int, k)) if k else ''} = {a[k].item()!r} is not finite"))
    return a


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(a b). Real up to rounding when both factors are Hermitian."""
    return complex(np.trace(a @ b))


def hermiticity_defect(m: np.ndarray):
    """Largest entry-wise deviation |m - m^H| of each matrix of a stack (a
    numpy scalar for one matrix)."""
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))


def require_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    defect = hermiticity_defect(m)
    require(defect, HERMITIAN_TOL,
            lambda k: NotHermitian(f"{what}: max |M - M^H| = {defect[k]:.3e} exceeds {HERMITIAN_TOL:.0e}"))


def eigvals_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Eigenvalues of each Hermitian 2x2 or 4x4 matrix of a stack, ascending
    (LAPACK's Hermitian solver through ``numpy.linalg.eigvalsh``). A matrix
    that is not Hermitian raises NotHermitian, named by `what`."""
    require_hermitian(m, what=what)
    if m.shape[-2:] not in ((2, 2), (4, 4)):
        raise OutOfRange(f"only 2x2 and 4x4 supported, got shape {m.shape}")
    return np.linalg.eigvalsh(m)


def min_eigenvalue_hermitian(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 or 4x4 matrix."""
    return float(eigvals_hermitian(m)[0])


read_only(globals())
