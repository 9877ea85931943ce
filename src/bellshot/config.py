"""Experiment configs: the JSON document format and every input rule.

A config is a single JSON document; measurement directions are given as
Bloch 3-vectors rather than angles so no axis convention can creep in.
Every refusal is a ConfigError whose message starts with the field at fault.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import observables, states
from .errors import BellshotError, ConfigError
from .measurement import GammaSet
from .observables import ObservableSet
from .sampler import RNG_RANGES
from .states import BellState, DensityMatrix

# every config field, in the order from_dict checks them
FIELDS = ("state", "observables", "gammas", "shots", "seed", "stream_count")
# integer inputs, config fields and validate's --trials alike: name -> (low, high, kind).
# seed and stream_count are RngConfig's own ranges; shots past the sampler's MAX_SHOTS
# are refused by the sampler, whose message says why.
INTEGERS = {
    "shots": (0, math.inf, "a nonnegative integer"),
    **RNG_RANGES,
    "trials": (1, math.inf, "a positive integer"),
}
SETTING_KEYS = ("x", "y", "u", "v")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (state, settings, gammas, run plan)."""

    state: DensityMatrix
    settings: ObservableSet
    gammas: GammaSet
    shots: int = 0
    seed: int = 0
    stream_count: int = 1

    @classmethod
    def from_dict(cls, doc, **overrides) -> "ExperimentConfig":
        """Validate doc, with `overrides` (argv values) replacing its fields."""
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        doc = {**doc, **overrides}
        if unknown := set(doc) - set(FIELDS):
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name in ("state", "gammas"):
            if name not in doc:
                raise ConfigError(f'config is missing required field "{name}"')
        state = _state(doc["state"])
        settings = _observables(doc.get("observables"))
        gammas = _gammas(doc["gammas"])
        integers = {name: checked_int(name, doc[name]) for name in INTEGERS if name in doc}
        return cls(state, settings, gammas, **integers)


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory; no read permission
        raise ConfigError(f"config file cannot be read: {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {path}: {exc}")
    except RecursionError:  # json's decoder recurses once per nested container
        raise ConfigError(f"config file nests too deeply to decode: {path}")
    except ValueError as exc:  # JSONDecodeError; an int beyond int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(doc, **overrides)


def checked_int(name: str, value) -> int:
    """value if it is an integer in INTEGERS[name]'s range, else ConfigError naming name."""
    low, high, kind = INTEGERS[name]
    # bool subclasses int, but `"shots": true` is a mistake, not a one-shot run
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ConfigError(f"{name}: expected {kind}, got {_shown(value)}")
    return value


def _state(raw) -> DensityMatrix:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(
            'state: expected exactly one of {"bell": name}, {"werner": eta}, '
            '{"custom": {"real": 4x4, "imag": 4x4}}'
        )
    (kind, value), = raw.items()
    if kind == "bell":
        names = [b.value for b in BellState]
        # a message guard, not a second rule: BellState(value) refuses the same names, but
        # its message shows value's whole repr, however deep, where _shown bounds it
        if value not in names:
            raise ConfigError(f"state.bell: unknown name {_shown(value)}; "
                              f"expected one of {', '.join(names)}")
        return states.bell_state(BellState(value))
    if kind == "werner":
        eta = float(_reals(value, "state.werner", "a real in [0, 1]", ()))
        return _built("state.werner", states.werner_state, eta)
    if kind == "custom":
        real, imag = _keyed(value, "state.custom", ("real", "imag"),
                            '{"real": 4x4 table, "imag": 4x4 table}', "a 4x4 table of reals", (4, 4))
        return _built("state.custom", states.custom_state, real + 1j * imag)
    raise ConfigError(f"state: unknown kind {kind!r}")


def _observables(raw) -> ObservableSet:
    if raw is None:
        return observables.chsh_optimal_angles()
    vectors = _keyed(raw, "observables", SETTING_KEYS, 'keys "x", "y", "u", "v" (Bloch 3-vectors)',
                     "a 3-vector of reals", (3,))
    return _built("observables", observables.observable_set, *vectors)


def _gammas(raw) -> GammaSet:
    kind = 'a single real or keys "x", "y", "u", "v"'
    if not isinstance(raw, dict):
        return _built("gammas", GammaSet.equal, float(_reals(raw, "gammas", kind, ())))
    values = _keyed(raw, "gammas", SETTING_KEYS, kind, "a real", ())
    return _built("gammas", GammaSet, *map(float, values))


def _keyed(raw, where: str, keys: tuple, expected: str, kind: str, shape: tuple) -> list:
    """raw[key] as a float array of the given shape for each key, if raw is an
    object with exactly those keys; else ConfigError naming where or where.key."""
    if not isinstance(raw, dict) or set(raw) != set(keys):
        raise ConfigError(f"{where}: expected {expected}")
    return [_reals(raw[key], f"{where}.{key}", kind, shape) for key in keys]


def _built(where: str, build, *args):
    """build(*args), with a domain BellshotError re-raised as a ConfigError naming where."""
    try:
        return build(*args)
    except BellshotError as exc:
        raise ConfigError(f"{where}: {exc}")


def _reals(raw, where: str, kind: str, shape: tuple) -> np.ndarray:
    """raw as a float array of the given shape, or ConfigError naming where.
    Every leaf must be a JSON number: float() and numpy would read true as
    1.0 and "0.5" as 0.5, and null as NaN. Lists nested deeper than shape
    has axes are refused unwalked."""
    def numeric(node, depth):
        if isinstance(node, list):
            return depth > 0 and all(numeric(item, depth - 1) for item in node)
        return isinstance(node, (int, float)) and not isinstance(node, bool)

    try:
        if numeric(raw, len(shape)):
            values = np.array(raw, dtype=float)
            if values.shape == shape:
                return values
    except (ValueError, OverflowError):  # ragged tables; ints beyond float range
        pass
    raise ConfigError(f"{where}: expected {kind}, got {_shown(raw)}")


def _shown(value, depth: int = 8) -> str:
    """repr(value) for a JSON value, with containers more than depth levels
    down shown as [...] and {...}: a config may nest as deep as json.load
    allows, and a message must not recurse that far."""
    if isinstance(value, list) and value:
        inner = "..." if depth == 0 else ", ".join([_shown(v, depth - 1) for v in value])
        return f"[{inner}]"
    if isinstance(value, dict) and value:
        inner = "..." if depth == 0 else ", ".join(
            [f"{k!r}: {_shown(v, depth - 1)}" for k, v in value.items()])
        return f"{{{inner}}}"
    return repr(value)
