"""Exception taxonomy, and `record`, which makes each value type a frozen record. Every
validation failure names the violated invariant and the offending value in its message;
shown bounds the repr of a nested one, and checked_instance admits a record argument."""

import operator


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


def checked_instance(value, kind, what: str, error=OutOfRange):
    """value, if it is an instance of kind, a class or a tuple of classes; else error naming
    what. The one type rule for an argument that must be a record, such as a GammaSet or an
    InversionKernel: read on anything else, its attributes would end in an AttributeError."""
    if isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise error(f"{what}: expected {names}, got {type(value).__name__}")


def record(cls):
    """cls as a frozen record, with no code generated: its fields are its __init__'s
    parameters, which __init__ stores through fill. repr and == read them in order, as a
    frozen dataclass's do, hash reads them and the type, and setting or deleting an
    attribute raises AttributeError."""
    init = cls.__init__.__code__
    cls._fields = init.co_varnames[1:init.co_argcount]
    values = operator.attrgetter(*cls._fields, "__class__")  # one C call; a tuple for one field too

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, values(self)))})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    cls.__repr__, cls.__eq__, cls.__hash__ = __repr__, __eq__, __hash__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def fill(obj, *values) -> None:
    """Store a record's field values, given in its fields' order. Each is set as a dataclass
    sets it: reading obj.__dict__ instead would make every later attribute read slower."""
    for name, value in zip(obj._fields, values):
        object.__setattr__(obj, name, value)


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is a frozen record: cannot set or delete {name!r}")
