"""Shared oracles and generators for the test suite.

Oracle matrices here are built with plain numpy (np.kron, np.trace,
np.linalg.eigvalsh) so that library results are always compared against an
independent computation, not against themselves.
"""

import numpy as np
import pytest

from bellshot import GammaSet, inversion, observable_set
from bellshot.sampler import _fixed_17g

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


def admissible_draw(rng):
    """Random settings plus gammas strictly inside the positivity region.

    Worst-case Bloch norm of a subsystem element is
    sqrt(g1^2 + g2^2 + 2 g1 g2 |n1.n2|); pairs exceeding 1 are scaled back.
    """
    blochs = [random_unit(rng) for _ in range(4)]
    gs = list(rng.uniform(0.3, 0.95, size=4))
    for i, j in ((0, 1), (2, 3)):
        c = abs(float(blochs[i] @ blochs[j]))
        worst = np.sqrt(gs[i] ** 2 + gs[j] ** 2 + 2.0 * gs[i] * gs[j] * c)
        if worst > 1.0:
            scale = (1.0 - 1e-9) / worst
            gs[i] *= scale
            gs[j] *= scale
    return observable_set(*blochs), GammaSet(*gs)


@pytest.fixture
def optimal_settings():
    return observable_set(*(OPTIMAL_BLOCHS[k] for k in ("x", "y", "u", "v")))


@pytest.fixture
def root_half_gammas():
    return GammaSet.equal(ROOT_HALF)


@pytest.fixture
def corrupted_kernel(monkeypatch):
    """Every kernel table, one or a gamma sweep's stack, with 1e-3 moved from row 3
    to row 0 of column 7. Each column still sums to 1, so InversionKernel admits
    the table; s(xi) is +2 at outcome 0 and -2 at outcome 3, so the kernel-sum
    route of single-shot CHSH at outcome 7 moves by 4e-3 and its closed form does
    not."""
    original = inversion.kernel_tables

    def kernel_tables(gammas):
        tables = original(gammas)
        tables[..., 0, 7] += 1e-3
        tables[..., 3, 7] -= 1e-3
        return tables

    monkeypatch.setattr(inversion, "kernel_tables", kernel_tables)


@pytest.fixture
def corrupted_inversion(monkeypatch):
    """Every inversion, of one observed distribution or a Werner sweep's stack, with
    1e-6 moved from outcome 3 to outcome 0. Each quasi-distribution still sums to 1,
    so QuasiDistribution admits it; s(xi) is +2 at outcome 0 and -2 at outcome 3,
    so ensemble S moves by 4e-6 and the observed-weighted single-shot route does not."""
    original = inversion.inverted_entries

    def inverted_entries(kernel, observed):
        entries = original(kernel, observed)
        entries[..., 0] += 1e-6
        entries[..., 3] -= 1e-6
        return entries

    monkeypatch.setattr(inversion, "inverted_entries", inverted_entries)


def fixed_17g_strings(values):
    """The sampler's vector %.17g as one str per value, or None if it declines."""
    chars = _fixed_17g(np.asarray(values, dtype=float))
    return None if chars is None else [bytes(row[row != 0]).decode() for row in chars]


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
