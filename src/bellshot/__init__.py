"""Single-shot Bell tests from one joint noisy measurement of two qubits.

Workflow: pick a two-qubit state and four measurement directions, build
the sixteen-outcome joint unsharp measurement, invert its statistics
through the exact quasi-stochastic kernel, then evaluate CHSH and CH
quantities either in ensemble form or shot by shot.
"""

from types import ModuleType as _ModuleType

from .belltests import (
    ChReport,
    ChshReport,
    Verdict,
    ch_report,
    ch_verdict,
    chsh_report,
    chsh_verdict,
    classical_bounds_check,
    ensemble_chsh,
    ensemble_from_shots,
    single_shot_ch,
    single_shot_ch_table,
    single_shot_chsh_table,
    s_of_xi,
)
from .errors import (
    BellshotError,
    ConfigError,
    ConsistencyError,
    EmptyShotList,
    GammaOutOfRange,
    InvalidDistribution,
    NotHermitian,
    NotPSD,
    NotPositive,
    NotUnitTrace,
    OutOfRange,
)
from .inversion import (
    InversionKernel,
    QuasiDistribution,
    build_kernel,
    cross_marginal,
    invert_distribution,
    kernel_1d,
    reconstructed_sharp_povm,
    single_marginal,
)
from .measurement import (
    OUTCOMES,
    GammaSet,
    JointPovm,
    OutcomeIndex,
    joint_povm,
    observed_statistics,
)
from .observables import (
    ObservableLabel,
    ObservableSet,
    ObservableSpec,
    SharpPovm,
    bloch_operator,
    chsh_optimal_angles,
    observable_set,
    sharp_povm,
)
from .sampler import (
    RngConfig,
    ShotRecord,
    convergence_report,
    empirical_frequencies,
    sample_indices,
    sample_shots,
    shot_records,
    write_shot_csv,
)
from .states import (
    BellState,
    DensityMatrix,
    bell_state,
    custom_state,
    random_density_matrix,
    werner_state,
)
from .validate import ValidationReport, validate_all

__version__ = "0.1.0"

# the public names the imports above bind, modules left out: importing a name here exports it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
