"""Dense complex linear algebra for 2x2 and 4x4 Hermitian operators.

Matrices are plain ``numpy`` arrays of ``complex128``. There are no wrapper
classes at this level; Hermiticity and positivity are enforced by the
validating constructors that sit on top (density matrices, POVM elements).
Dimensions are fixed at 2 and 4, so nothing here is generic over size. The
checks run over any leading stack axes and, on failure, report the first
matrix of the stack that fails.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, OutOfRange

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def first_failing(values, bad):
    """The entry of values at the first True of bad, in C order. values
    starts with bad's axes; any further axes come along, and a 0-d bad
    gives values itself."""
    return values[np.unravel_index(np.argmax(bad), np.shape(bad))]


def as_matrix(entries, dim: int, stack_axes: int = 0) -> np.ndarray:
    """Copy to a dim x dim complex array, or to a stack of them with
    stack_axes leading axes, rejecting NaN/Inf entries.

    Always copies, so freezing the result never locks a caller's array.
    """
    m = np.array(entries, dtype=complex)
    if m.shape[stack_axes:] != (dim, dim):
        raise OutOfRange(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise OutOfRange("matrix entries must be finite (no NaN/Inf)")
    return m


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(a b). Real up to rounding when both factors are Hermitian."""
    return complex(np.trace(a @ b))


def hermiticity_defect(m: np.ndarray):
    """Largest entry-wise deviation |m - m^H| of each matrix of a stack (a
    numpy scalar for one matrix)."""
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))


def require_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    defect = hermiticity_defect(m)
    bad = defect > HERMITIAN_TOL
    if np.any(bad):
        worst = first_failing(defect, bad)
        raise NotHermitian(f"{what}: max |M - M^H| = {worst:.3e} exceeds {HERMITIAN_TOL:.0e}")


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
