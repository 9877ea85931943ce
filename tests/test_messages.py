"""Error messages print numbers as plain Python reprs, never numpy's
`np.float64(...)`, whatever scalar type the failing value had, and the
checks' messages keep their whole text. A check over a stack names its
first failing matrix or distribution."""

import numpy as np
import pytest

from bellshot import (
    BellshotError,
    ConsistencyError,
    DensityMatrix,
    GammaSet,
    NotPSD,
    ObservableLabel,
    ObservableSpec,
    QuasiDistribution,
    RngConfig,
    SharpPovm,
    build_kernel,
    cross_marginal,
    joint_povm,
    kernel_1d,
    observable_set,
    sample_indices,
    werner_state,
)
from bellshot.inversion import require_column_sums, require_quasi_entries
from bellshot.measurement import born_probabilities
from conftest import OPTIMAL_BLOCHS, ROOT_HALF


def optimal_povm():
    settings = observable_set(*(OPTIMAL_BLOCHS[k] for k in ("x", "y", "u", "v")))
    return joint_povm(settings, GammaSet.equal(ROOT_HALF))


def spec(label, bloch):
    return ObservableSpec(ObservableLabel(label), np.array(bloch))


def with_entry(i, value):
    p = np.full(16, 1.0 / 16.0)
    p[i] = value
    return p


FAILURES = {
    "density_trace": lambda: DensityMatrix(np.zeros((4, 4))),
    "werner_eta": lambda: werner_state(np.float64(1.5)),
    "sample_probability_floor": lambda: sample_indices(with_entry(0, -0.1), 10, RngConfig(1)),
    "sample_probability_sum": lambda: sample_indices(np.full(16, 1.0 / 32.0), 10, RngConfig(1)),
    "joint_element_eigenvalue": lambda: joint_povm(
        observable_set(*(OPTIMAL_BLOCHS[k] for k in "xyuv")),
        GammaSet(np.float64(0.9), np.float64(0.9), ROOT_HALF, ROOT_HALF),
    ),
    "observed_probability_floor": lambda: born_probabilities(np.diag([1.5, -0.5, 0.0, 0.0]), optimal_povm()),
    "observed_probability_sum": lambda: born_probabilities(np.eye(4) / 2.0, optimal_povm()),
    "kernel_1d_gamma": lambda: kernel_1d(np.float64(2.0)),
    "quasi_sum": lambda: require_quasi_entries(np.full(16, 0.5)),
    "bloch_norm": lambda: spec("x", [2.0, 0.0, 0.0]),
    "sharp_eigenvalue": lambda: SharpPovm(np.diag([1.0, -0.5]), np.diag([0.0, 1.5])),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_messages_print_plain_floats(case):
    with pytest.raises(BellshotError) as info:
        FAILURES[case]()
    assert "np.float64(" not in str(info.value)


MIXED = np.eye(4) / 4
CORNER = np.diag([1.0, 0.0, 0.0, 0.0])


def off_column_sum(delta):
    table = build_kernel(GammaSet.equal(ROOT_HALF)).table.copy()
    table[0, 5] += delta
    return table


def quasi_negative_xu():
    entries = np.full(16, 1.0 / 16.0)
    entries[0] -= 0.5  # x = u = +1 loses half
    entries[15] += 0.5
    return QuasiDistribution(entries)


WHOLE_MESSAGES = {
    "observed_imaginary": (
        lambda: born_probabilities(MIXED + 1e-3j * CORNER, optimal_povm()),
        ConsistencyError, "probability 1 has imaginary part 0.00021338834764831843",
    ),
    "observed_imaginary_stack": (
        lambda: born_probabilities(
            np.array([MIXED, MIXED + 1e-3j * np.diag([0.0, 0.0, 1.0, 0.0]), MIXED + 1e-2j * CORNER]),
            optimal_povm(),
        ),
        ConsistencyError, "probability 9 has imaginary part 0.00021338834764831843",
    ),
    "observed_floor": (
        lambda: born_probabilities(np.diag([1.5, -0.5, 0.0, 0.0]), optimal_povm()),
        ConsistencyError, "observed probability -0.10669417382415917 below -1e-12",
    ),
    "observed_floor_stack": (
        lambda: born_probabilities(
            np.array([MIXED, np.diag([1.25, -0.25, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0])]),
            optimal_povm(),
        ),
        ConsistencyError, "observed probability -0.05334708691207958 below -1e-12",
    ),
    "kernel_column_sums": (
        lambda: require_column_sums(off_column_sum(1e-6)),
        ConsistencyError, "kernel column sums deviate from 1 by 1.000e-06",
    ),
    "kernel_column_sums_stack": (
        lambda: require_column_sums(np.array([off_column_sum(0.0), off_column_sum(2e-9), off_column_sum(3e-6)])),
        ConsistencyError, "kernel column sums deviate from 1 by 2.000e-09",
    ),
    "cross_marginal_floor": (
        lambda: cross_marginal(quasi_negative_xu(), ("x", "u")),
        ConsistencyError, "cross marginal (x, u) entry -0.25 below -1e-10",
    ),
    "sharp_projector": (
        lambda: SharpPovm(np.eye(2) / 2, np.eye(2) / 2),
        NotPSD, "sharp element(+1) is not a projector: |E^2 - E| = 2.500e-01",
    ),
    "sharp_completeness": (
        lambda: SharpPovm(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
        NotPSD, "sharp elements do not sum to identity: defect 1.000e+00",
    ),
}


@pytest.mark.parametrize("case", sorted(WHOLE_MESSAGES))
def test_check_messages_keep_their_whole_text(case):
    build, error, message = WHOLE_MESSAGES[case]
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
