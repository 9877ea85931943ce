"""Exception taxonomy. Every validation failure names the violated invariant
and the offending value in its message; shown bounds the repr of a nested one."""


class BellshotError(Exception):
    """Base class for all package errors."""


class NotHermitian(BellshotError):
    """Matrix fails the Hermitian symmetry check."""


class NotUnitTrace(BellshotError):
    """Density matrix trace differs from 1 beyond tolerance."""


class NotPSD(BellshotError):
    """Hermitian matrix has an eigenvalue below the PSD tolerance."""


class OutOfRange(BellshotError):
    """Scalar or vector argument outside its admissible range."""


class NotPositive(BellshotError):
    """A constructed POVM element is not positive semidefinite, i.e. the
    requested unsharpness/angle combination lies outside the physical region."""


class GammaOutOfRange(BellshotError):
    """Unsharpness factor outside [gamma_min, 1] in magnitude."""


class EmptyShotList(BellshotError):
    """An operation requiring at least one shot received none."""


class InvalidDistribution(BellshotError):
    """Probability vector with a negative entry or a wrong total."""


class ConsistencyError(BellshotError):
    """An internal cross-check failed (dual-path disagreement, probability
    mass off by more than tolerance). Indicates a bug, not bad user input."""


class ConfigError(BellshotError):
    """Experiment configuration file is malformed or inconsistent."""


def shown(value, depth: int = 8) -> str:
    """repr(value) for a message, with lists and dicts more than depth levels
    down shown as [...] and {...}: a config may nest as deep as json.load
    allows, and a message must not recurse that far."""
    if isinstance(value, list) and value:
        inner = "..." if depth == 0 else ", ".join([shown(v, depth - 1) for v in value])
        return f"[{inner}]"
    if isinstance(value, dict) and value:
        inner = "..." if depth == 0 else ", ".join(
            [f"{k!r}: {shown(v, depth - 1)}" for k, v in value.items()])
        return f"{{{inner}}}"
    return repr(value)
