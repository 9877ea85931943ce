"""Experiment configs: the JSON document format and every input rule. The integer
fields share sampler.checked_integer with argv and the API.

A config is a single JSON document; measurement directions are given as
Bloch 3-vectors rather than angles so no axis convention can creep in.
Every refusal is a ConfigError whose message starts with the field at fault.
"""

from __future__ import annotations

import json

import numpy as np

from . import observables, sampler, states
from .errors import BellshotError, ConfigError, fill, record, shown
from .measurement import GammaSet
from .observables import ObservableSet
from .states import BellState, DensityMatrix

# every config field, in the order from_dict checks them; the integer ones are admitted
# by sampler.checked_integer, the rule the API and argv share
FIELDS = ("state", "observables", "gammas", "shots", "seed", "stream_count")
SETTING_KEYS = ("x", "y", "u", "v")


@record
class ExperimentConfig:
    """Validated experiment description (state, settings, gammas, run plan)."""

    def __init__(self, state: DensityMatrix, settings: ObservableSet, gammas: GammaSet,
                 shots: int = 0, seed: int = 0, stream_count: int = 1):
        fill(self, state, settings, gammas, shots, seed, stream_count)

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
        # absent means the CHSH-optimal default; null is refused, as in every other field
        settings = (_observables(doc["observables"]) if "observables" in doc
                    else observables.chsh_optimal_angles())
        gammas = _gammas(doc["gammas"])
        integers = {name: sampler.checked_integer(name, doc[name], ConfigError)
                    for name in FIELDS if name in sampler.INTEGERS and name in doc}
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
        # its message shows value's whole repr, however deep, where shown bounds it
        if value not in names:
            raise ConfigError(f"state.bell: unknown name {shown(value)}; "
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
    1.0 and "0.5" as 0.5, and null as NaN. Each axis of shape flattens one
    level of lists, so lists nested deeper than shape has axes are refused
    unwalked, and the leaves are tested in one pass."""
    leaves = [raw]
    for _ in shape:
        if not all(issubclass(kind, list) for kind in set(map(type, leaves))):
            break
        leaves = [item for node in leaves for item in node]
    else:
        kinds = set(map(type, leaves))
        try:
            if all(issubclass(kind, (int, float)) and not issubclass(kind, bool) for kind in kinds):
                values = np.array(raw, dtype=float)
                if values.shape == shape:
                    return values
        except (ValueError, OverflowError):  # ragged tables; ints beyond float range
            pass
    raise ConfigError(f"{where}: expected {kind}, got {shown(raw)}")
