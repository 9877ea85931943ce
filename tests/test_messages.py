"""Error messages print numbers as plain Python reprs, never numpy's
`np.float64(...)`, whatever scalar type the failing value had."""

import numpy as np
import pytest

from bellshot import (
    BellshotError,
    DensityMatrix,
    GammaSet,
    ObservableLabel,
    ObservableSpec,
    RngConfig,
    SharpPovm,
    joint_povm,
    kernel_1d,
    observable_set,
    sample_indices,
    werner_state,
)
from bellshot.inversion import require_quasi_entries
from bellshot.measurement import born_probabilities, build_joint_povm
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
    "joint_element_eigenvalue": lambda: build_joint_povm(
        (spec("x", [0.0, 0.0, 1.0]), spec("y", [1.0, 0.0, 0.0])), (np.float64(0.9), np.float64(0.9))
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
