"""Sharp dichotomic qubit observables defined by unit Bloch vectors.

Outcome +1 corresponds to the projector along +n, which fixes the sign of
every correlation downstream. The CHSH test uses two observables per
subsystem: X, Y on A and U, V on B.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import linalg
from .errors import NotPSD, OutOfRange, checked_instance, fill, record


class ObservableLabel(Enum):
    X = "x"
    Y = "y"
    U = "u"
    V = "v"

    @classmethod
    def _missing_(cls, value):  # every ObservableLabel(label) raises this, not Enum's ValueError
        raise OutOfRange(f"unknown observable label {value!r}; expected one of x, y, u, v")


def checked_sign(w, what: str) -> int:
    """w as an int, if it is a Python or numpy integer +1 or -1, else OutOfRange naming what:
    the one rule for an outcome sign. bool subclasses int and 1.0 equals 1, but neither is a
    sign, as sampler.checked_integer refuses them as counts."""
    if isinstance(w, (int, np.integer)) and not isinstance(w, bool) and w in (-1, 1):
        return int(w)
    raise OutOfRange(f"{what} = {w!r}, must be +1 or -1")


def bloch_operator(n) -> np.ndarray:
    """n . sigma for a finite real 3-vector n, else OutOfRange."""
    n = linalg.as_finite(n, (3,), "bloch vector")
    return n[0] * linalg.SIGMA_X + n[1] * linalg.SIGMA_Y + n[2] * linalg.SIGMA_Z


@record
class ObservableSpec:
    """A dichotomic observable n . sigma with outcomes +-1."""

    def __init__(self, label: ObservableLabel, bloch: np.ndarray):
        label = ObservableLabel(label)
        n = linalg.as_finite(bloch, (3,), f"observable {label.value}: bloch vector")
        norm = math.sqrt(n.dot(n))  # np.linalg.norm of a real vector, without its dispatch
        linalg.require(abs(norm - 1.0), linalg.BLOCH_NORM_TOL,
                       lambda _: OutOfRange(f"observable {label.value}: |bloch| = {norm!r}, expected 1"))
        n.setflags(write=False)
        fill(self, label, n)

    def operator(self) -> np.ndarray:
        return bloch_operator(self.bloch)


@record
class SharpPovm:
    """Projective two-outcome POVM {E(+1), E(-1)}."""

    def __init__(self, element_plus: np.ndarray, element_minus: np.ndarray):
        plus, minus = (linalg.as_finite(e, (2, 2), f"sharp element({w:+d})", dtype=complex)
                       for w, e in ((+1, element_plus), (-1, element_minus)))
        for w, e in ((+1, plus), (-1, minus)):
            e.setflags(write=False)
            lam = float(linalg.eigvals_hermitian(e, what=f"sharp element({w:+d})")[0])
            linalg.require(-lam, -linalg.PSD_TOL,
                           lambda _: NotPSD(f"sharp element({w:+d}): min eigenvalue = {lam!r}"))
            idem = float(np.max(np.abs(e @ e - e)))
            linalg.require(idem, linalg.PROJECTOR_TOL, lambda _: NotPSD(
                f"sharp element({w:+d}) is not a projector: |E^2 - E| = {idem:.3e}"))
        defect = float(np.max(np.abs(plus + minus - linalg.I2)))
        linalg.require(defect, linalg.COMPLETENESS_TOL,
                       lambda _: NotPSD(f"sharp elements do not sum to identity: defect {defect:.3e}"))
        fill(self, plus, minus)

    def element(self, w: int) -> np.ndarray:
        return self.element_plus if checked_sign(w, "outcome sign w") > 0 else self.element_minus


def sharp_povm(obs: ObservableSpec) -> SharpPovm:
    """Eigenprojectors (I + w n.sigma) / 2 of the observable."""
    op = checked_instance(obs, ObservableSpec, "observable").operator()
    return SharpPovm(0.5 * (linalg.I2 + op), 0.5 * (linalg.I2 - op))


@record
class ObservableSet:
    """The four CHSH observables, X and Y on subsystem A, U and V on B."""

    def __init__(self, x: ObservableSpec, y: ObservableSpec, u: ObservableSpec, v: ObservableSpec):
        for label, spec in zip(ObservableLabel, (x, y, u, v)):  # slot x holds label X, and so on
            if checked_instance(spec, ObservableSpec, f"observable {label.value}").label is not label:
                raise OutOfRange(f"observable in slot {label.value!r} carries label {spec.label.value!r}")
        fill(self, x, y, u, v)

    def get(self, label: ObservableLabel) -> ObservableSpec:
        return getattr(self, ObservableLabel(label).value)


def observable_set(x_bloch, y_bloch, u_bloch, v_bloch) -> ObservableSet:
    blochs = (x_bloch, y_bloch, u_bloch, v_bloch)
    return ObservableSet(*(ObservableSpec(label, n) for label, n in zip(ObservableLabel, blochs)))


def chsh_optimal_angles() -> ObservableSet:
    """Canonical maximal-violation configuration for the singlet.

    All vectors lie in the x-z Bloch plane, each subsystem's pair is
    orthogonal, and B's directions bisect A's. The V direction is oriented
    so the minus term of the CHSH combination picks up the flipped
    correlation, giving |S| = 2 sqrt(2) on the singlet.
    """
    r = 1.0 / np.sqrt(2.0)
    return observable_set(
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0),
        (r, 0.0, r),
        (r, 0.0, -r),
    )
