"""Shared oracles and generators for the test suite.

Oracle matrices here are built with plain numpy (np.kron, np.trace,
np.linalg.eigvalsh) so that library results are always compared against an
independent computation, not against themselves.
"""

import numpy as np
import pytest

from bellshot import GammaSet, ObservableLabel, observable_set
from bellshot.measurement import PAIR_MARGINALS
from bellshot.sampler import _WORD, _fixed_17g, _Work

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# projector onto (|01> - |10>)/sqrt(2), written out by hand
SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5

ROOT_HALF = 1.0 / np.sqrt(2.0)

OPTIMAL_BLOCHS = {
    "x": np.array([0.0, 0.0, 1.0]),
    "y": np.array([1.0, 0.0, 0.0]),
    "u": np.array([ROOT_HALF, 0.0, ROOT_HALF]),
    "v": np.array([ROOT_HALF, 0.0, -ROOT_HALF]),
}


def bloch_matrix(n):
    return n[0] * SX + n[1] * SY + n[2] * SZ


def projector(n, w):
    """Sharp outcome-w projector for direction n, built independently."""
    return 0.5 * (np.eye(2, dtype=complex) + w * bloch_matrix(n))


PAIRS = ("xu", "xv", "yu", "yv")  # the A-B pairs of PAIR_MARGINALS' columns, in order


def pair_marginals(q) -> dict:
    """q's A-B pair marginals, q @ PAIR_MARGINALS, each (2, 2) indexed [w_a, w_b] with +1
    first, keyed by pair as in PAIRS."""
    return dict(zip(PAIRS, (q.entries @ PAIR_MARGINALS).reshape(4, 2, 2)))


def one_marginal(q, label) -> np.ndarray:
    """q's one-observable marginal, (2,) with +1 first: its (x, u) pair marginal summed over
    the partner for x and u, (y, u) for y and (x, v) for v."""
    pairs = pair_marginals(q)
    return {"x": pairs["xu"].sum(axis=1), "y": pairs["yu"].sum(axis=1),
            "u": pairs["xu"].sum(axis=0), "v": pairs["xv"].sum(axis=0)}[ObservableLabel(label).value]


def inverted_pair_operators(kernel, povm) -> dict:
    """The kernel table applied to the joint POVM's 16 product elements, marginalized by
    PAIR_MARGINALS: per pair as in PAIRS, (2, 2, 4, 4) operators indexed [w_a, w_b]."""
    inverted = np.tensordot(kernel.table, povm.product, axes=1)
    return dict(zip(PAIRS, np.tensordot(PAIR_MARGINALS, inverted, axes=(0, 0)).reshape(4, 2, 2, 4, 4)))


def unsharp_element(settings, gammas, label, w):
    """One observable's unsharp marginal element (I + w gamma n.sigma) / 2."""
    return 0.5 * (np.eye(2) + w * gammas.of(label) * settings.get(label).operator())


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def random_state_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture
def optimal_settings():
    return observable_set(*(OPTIMAL_BLOCHS[k] for k in ("x", "y", "u", "v")))


@pytest.fixture
def root_half_gammas():
    return GammaSet.equal(ROOT_HALF)


def fixed_17g_strings(values):
    """The sampler's vector %.17g as one str per value."""
    m = np.asarray(values, dtype=float)
    cells = np.empty((len(m), 6), _WORD)
    _fixed_17g(m, cells, _Work())
    return [bytes(row[row != 0]).decode() for row in cells.view(np.uint8)]


def sampling_cdf(probabilities) -> np.ndarray:
    """The cdf the sampler draws from: negatives clamped, renormalized, last entry 1."""
    p = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    return cdf


def near_boundary_config() -> dict:
    """A full-rank custom state on non-orthogonal settings. The x/y gamma pair
    is scaled so the worst-case Bloch norm of its elements is 1 - 1e-9, so one
    POVM element sits 1e-9 inside positivity."""
    psi = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])
    psi /= np.linalg.norm(psi)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(4) / 4.0
    x, y = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])
    u, v = np.array([0.8, 0.0, 0.6]), np.array([0.0, 0.6, 0.8])
    gx, gy = 0.9, 0.7
    scale = (1.0 - 1e-9) / np.sqrt(gx**2 + gy**2 + 2.0 * gx * gy * abs(float(x @ y)))
    return {
        "state": {"custom": {"real": rho.real.tolist(), "imag": rho.imag.tolist()}},
        "observables": {"x": x.tolist(), "y": y.tolist(), "u": u.tolist(), "v": v.tolist()},
        "gammas": {"x": gx * scale, "y": gy * scale, "u": 0.55, "v": 0.6},
    }
