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
    invert_distribution,
    kernel_1d,
)
from .measurement import (
    OUTCOMES,
    PAIR_MARGINALS,
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

__version__ = "0.1.0"
_ON_USE = ("ValidationReport", "validate_all")  # validate's, imported on first lookup: few runs need it

# the public names bound above, modules left out, and on use: importing a name here exports it
__all__ = sorted([*_ON_USE, *(name for name, value in globals().items()
                              if not name.startswith("_") and not isinstance(value, _ModuleType))])


def __getattr__(name):  # PEP 562: a name not bound at import
    if name not in _ON_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import validate
    return getattr(validate, name)


def __dir__():  # so that dir() and help() list the names bound on use
    return sorted([*globals(), *_ON_USE])
