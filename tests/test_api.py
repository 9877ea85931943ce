"""The package manifest: `bellshot.__all__` against `__init__`'s imports,
`pyproject.toml`'s version against `bellshot.__version__`, the rule that
a pipeline function has one binding, on the module that defines it, so a
stage patched there is the stage every command calls, and the rule that a
public entry point refuses a bad argument with a BellshotError."""

import argparse
import ast
import importlib
import inspect
import re
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bellshot
from bellshot import (
    BellshotError,
    ChReport,
    ChshReport,
    GammaSet,
    InversionKernel,
    QuasiDistribution,
    RngConfig,
    SharpPovm,
    belltests,
    bloch_operator,
    build_kernel,
    ch_report,
    ch_verdict,
    chsh_optimal_angles,
    chsh_report,
    chsh_verdict,
    classical_bounds_check,
    convergence_report,
    cross_marginal,
    custom_state,
    empirical_frequencies,
    ensemble_from_shots,
    invert_distribution,
    inversion,
    joint_povm,
    kernel_1d,
    linalg,
    measurement,
    observable_set,
    sample_indices,
    sharp_povm,
    shot_records,
    validate,
    validate_all,
    werner_state,
    write_shot_csv,
)
from bellshot import cli
from bellshot.cli import main
from bellshot.config import ExperimentConfig
from bellshot.errors import ConfigError, OutOfRange
from bellshot.sampler import MAX_SHOTS, ShotDraws
from conftest import OPTIMAL_BLOCHS, ROOT_HALF
from test_cli import CORRUPTIBLE_COMMANDS, singlet_config

PACKAGE = Path(bellshot.__file__).resolve().parent
PIPELINE = ("linalg", "states", "observables", "measurement", "inversion", "belltests", "sampler")


def imported_names() -> list[str]:
    """Every name bound by a relative `from .module import ...` in __init__."""
    tree = ast.parse(Path(bellshot.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_lists_exactly_the_imported_non_module_names():
    public = [n for n in imported_names()
              if not isinstance(getattr(bellshot, n), types.ModuleType)]
    assert len(bellshot.__all__) == len(set(bellshot.__all__))
    assert sorted(bellshot.__all__) == sorted(public)


def test_every_exported_name_resolves():
    missing = [n for n in bellshot.__all__ if not hasattr(bellshot, n)]
    assert missing == []


def test_pyproject_reads_its_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(path)["project"]
    assert project["version"] == bellshot.__version__


def function_aliases() -> list[str]:
    """Each function that a package module other than __init__ binds by name
    with `from .<pipeline module> import ...`, as "importer: module.function"."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in PIPELINE:
                source = importlib.import_module(f"bellshot.{node.module}")
                found += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                          if inspect.isfunction(getattr(source, alias.name))]
    return found


def test_pipeline_functions_are_called_through_their_module():
    assert function_aliases() == []


STAGES = {measurement: ("born_traces", "product_povm", "born_probabilities"),
          inversion: ("kernel_tables", "invert_distribution"),
          belltests: ("single_shot_chsh_tables",)}

# the calls each command makes to each stage, directly or through another stage
ALL_FOUR = {"born_traces": 1, "product_povm": 1, "born_probabilities": 1, "kernel_tables": 1}
STAGE_CALLS = {
    # once, for exact.json's quasi-distribution and both reports
    "exact": {**ALL_FOUR, "invert_distribution": 1, "single_shot_chsh_tables": 1},
    # the frequencies once, checked against the shot mean; the exact S once, in chsh_report
    "run": {**ALL_FOUR, "invert_distribution": 2, "single_shot_chsh_tables": 2},
    "sweep_gamma": {"born_traces": 1, "product_povm": 1, "kernel_tables": 1, "single_shot_chsh_tables": 1},
    "sweep_werner_eta": {"born_traces": 1, "product_povm": 1, "born_probabilities": 1, "kernel_tables": 1,
                         "single_shot_chsh_tables": 1},
}


def test_readme_exact_admission_count_is_pinned(tmp_path, monkeypatch):
    # 19 linalg.as_finite calls: the state and the four gammas (one pass); the four
    # observables and their four Bloch operators; the kernel table, and the observed
    # statistics and quasi-distribution of the one inversion; the observed statistics again
    # in each report; the four report arrays in classical_bounds_check
    calls = Counter()
    admit = linalg.as_finite

    def counted(value, shape, what, *args, **kwargs):
        calls[what] += 1
        return admit(value, shape, what, *args, **kwargs)

    monkeypatch.setattr(linalg, "as_finite", counted)
    assert main(["exact", "--config", singlet_config(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert sum(calls.values()) == 19, calls
    assert calls["observed statistics"] == 3 and calls["quasi-distribution"] == 1


@pytest.mark.parametrize("command", sorted(CORRUPTIBLE_COMMANDS))
def test_a_stage_patched_on_its_module_reaches_every_command(tmp_path, monkeypatch, command):
    calls = Counter()

    def spy(name, stage):
        def counted(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)
        return counted

    for module, names in STAGES.items():
        for name in names:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    argv = [*CORRUPTIBLE_COMMANDS[command], "--config", singlet_config(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == STAGE_CALLS[command]


def kernel():
    return build_kernel(GammaSet.equal(ROOT_HALF))


UNIFORM = np.full(16, 1 / 16)  # observed statistics whose inversion is a QuasiDistribution


# each public entry point as a function of the one argument under test
NUMERIC = {
    "GammaSet": lambda v: GammaSet(0.5, 0.5, 0.5, v),
    "GammaSet.equal": GammaSet.equal,
    "kernel_1d": kernel_1d,
    "werner_state": werner_state,
    "custom_state": custom_state,
    "observable_set": lambda v: observable_set(v, *(OPTIMAL_BLOCHS[k] for k in "yuv")),
    "bloch_operator": bloch_operator,
    "SharpPovm": lambda v: SharpPovm(v, np.diag([0.0, 1.0])),
    "InversionKernel": lambda v: InversionKernel(GammaSet.equal(ROOT_HALF), v),
    "QuasiDistribution": QuasiDistribution,
    "invert_distribution": lambda v: invert_distribution(kernel(), v),
    "chsh_report": lambda v: chsh_report(kernel(), v, invert_distribution(kernel(), UNIFORM)),
    "chsh_report quasi": lambda v: chsh_report(kernel(), UNIFORM, v),
    "ch_report": lambda v: ch_report(kernel(), v, invert_distribution(kernel(), UNIFORM)),
    "ch_report quasi": lambda v: ch_report(kernel(), UNIFORM, v),
    "classical_bounds_check ensemble_S": lambda v: classical_bounds_check(ChshReport(None, v, np.zeros(16))),
    "classical_bounds_check single_shot_S": lambda v: classical_bounds_check(ChshReport(None, 0.0, v)),
    "classical_bounds_check single_shot_C": lambda v: classical_bounds_check(ChReport(v, np.zeros(16))),
    "classical_bounds_check ensemble_C": lambda v: classical_bounds_check(ChReport(np.zeros((16, 16)), v)),
    "sample_indices": lambda v: sample_indices(v, 10, RngConfig(1)),
    "ShotDraws": lambda v: ShotDraws(v, 10, RngConfig(1)),
    "chsh_verdict": chsh_verdict,
    "ch_verdict": ch_verdict,
}
INTEGER = {
    "RngConfig.generator": lambda v: RngConfig(5, 3).generator(v),
    "validate_all": lambda v: validate_all(7, trials=v),
}
ENTRY_POINTS = {**NUMERIC, **INTEGER}
NAN_GRID = np.zeros((16, 16))
NAN_GRID[5, 11] = np.nan
BAD = {"abc": "abc", "None": None, "ragged": [[1.0], [1.0, 2.0]], "nan": float("nan"), "10**400": 10**400,
       "1.5": 1.5, "[[0.5]]": [[0.5]], "nan_in_16x16": NAN_GRID}
CASES = [(entry, bad) for entry in NUMERIC for bad in BAD if bad != "1.5"] + [
    # 10**400 trials is an integer count, admitted as the CLI admits it, and would never end
    (entry, bad) for entry in INTEGER for bad in BAD if (entry, bad) != ("validate_all", "10**400")]


@pytest.mark.parametrize("entry,bad", CASES)
def test_public_entry_points_refuse_bad_arguments_with_a_bellshot_error(entry, bad):
    with pytest.raises(BellshotError):
        ENTRY_POINTS[entry](BAD[bad])


def admitted(side, value, error) -> "int | str":
    """The int side(value) admits value as, or the text of the error it raises, which
    must be of type error."""
    try:
        got = side(value)
    except BellshotError as exc:
        assert type(exc) is error, repr(exc)
        return str(exc)
    assert type(got) is int
    return got


def trials_through_main(monkeypatch, capsys):
    """validate's --trials as main admits it: a parser that hands main the value, and a
    cmd_validate that records what it gets; a refusal is re-raised from its exit-2 line."""
    def side(value):
        seen = []
        args = argparse.Namespace(command="validate", seed=7, trials=value)
        monkeypatch.setattr(cli, "build_parser", lambda: types.SimpleNamespace(parse_args=lambda argv: args))
        monkeypatch.setattr(cli, "cmd_validate", lambda seed, trials: seen.append(trials) or 0)
        if main([]) == 2:
            raise ConfigError(capsys.readouterr().err.removeprefix("config error: ").removesuffix("\n"))
        return seen[0]
    return side


def trials_through_validate_all(monkeypatch):
    """validate_all's trials as it admits them, recorded by stand-in checks that run none."""
    def side(value):
        seen = []

        def check(rng, trials):
            seen.append(trials)
            yield True, ""

        for name in [n for n in vars(validate) if n.startswith("_check_")]:
            monkeypatch.setattr(validate, name, check)
        assert validate_all(7, trials=value).passed
        return seen[0]
    return side


def from_dict(name):
    """The config field name as from_dict admits it."""
    doc = {"state": {"bell": "psi_minus"}, "gammas": 0.5}
    return lambda v: getattr(ExperimentConfig.from_dict({**doc, name: v}), name)


INTEGER_VALUES = {"-1": -1, "0": 0, "1.5": 1.5, "True": True, "None": None, "'1'": "1",
                  "np.int64(3)": np.int64(3), "2**64": 2**64, "10**400": 10**400}


@pytest.mark.parametrize("value", INTEGER_VALUES)
@pytest.mark.parametrize("name", ["seed", "stream_count", "shots", "trials"])
def test_a_config_and_the_api_admit_the_same_integers(monkeypatch, capsys, name, value):
    v = INTEGER_VALUES[value]
    config_side, api_side = {
        "seed": (from_dict("seed"), lambda v: RngConfig(v).seed),
        "stream_count": (from_dict("stream_count"), lambda v: RngConfig(0, v).stream_count),
        "shots": (from_dict("shots"), lambda v: ShotDraws(np.full(16, 1 / 16), v, RngConfig(0)).n),
        "trials": (trials_through_main(monkeypatch, capsys), trials_through_validate_all(monkeypatch)),
    }[name]
    config, api = admitted(config_side, v, ConfigError), admitted(api_side, v, OutOfRange)
    if name == "shots" and isinstance(config, int) and config > MAX_SHOTS:
        # the rule admits it; the sampler's own bound refuses it, as it refuses it to run
        assert api.startswith(f"shot count {config} is too many: ")
    else:
        assert config == api


# each entry point that takes shots, as a function of the shots and a CSV path
SHOT_TAKERS = {
    "empirical_frequencies": lambda shots, path: empirical_frequencies(shots),
    "convergence_report": lambda shots, path: convergence_report(kernel(), shots),
    "write_shot_csv": lambda shots, path: write_shot_csv(path, kernel(), shots),
    "shot_records": lambda shots, path: shot_records(kernel(), shots),
    "ensemble_from_shots": lambda shots, path: ensemble_from_shots(kernel(), shots),
}


@pytest.mark.parametrize("shots", [np.array([[1, 2], [3, 4]]), np.array(3)], ids=["2-D", "0-D"])
@pytest.mark.parametrize("entry", sorted(SHOT_TAKERS))
def test_shots_that_are_not_one_index_per_shot_are_refused(tmp_path, entry, shots):
    path = tmp_path / "shots.csv"
    with pytest.raises(OutOfRange, match=rf"^shots have shape {re.escape(str(shots.shape))}, "):
        SHOT_TAKERS[entry](shots, path)
    assert list(tmp_path.iterdir()) == []  # refused before write_shot_csv opens its path


def marginal_element(w):
    return joint_povm(chsh_optimal_angles(), GammaSet.equal(ROOT_HALF)).marginal_element("u", w)


SIGN_TAKERS = {
    "JointPovm.marginal_element": marginal_element,
    "SharpPovm.element": lambda w: sharp_povm(chsh_optimal_angles().x).element(w),
    "OutcomeIndex": lambda w: measurement.OutcomeIndex(1, w, 1, 1),
}


# True, 1.0 and np.float64(-1.0) equal +1 or -1, but a sign is an integer, as a shot is
@pytest.mark.parametrize("w", [0, "a", 2, None, 0.5, np.array([1, -1]), True, np.bool_(True), 1.0,
                               np.float64(-1.0)], ids=repr)
@pytest.mark.parametrize("entry", sorted(SIGN_TAKERS))
def test_a_sign_is_plus_or_minus_one(entry, w):
    what = "outcome component y" if entry == "OutcomeIndex" else "outcome sign w"
    with pytest.raises(OutOfRange, match=rf"^{what} = .*, must be \+1 or -1$"):
        SIGN_TAKERS[entry](w)


def test_a_numpy_integer_sign_is_admitted_and_stored_as_an_int():
    xi = measurement.OutcomeIndex(np.int64(1), -1, np.int8(-1), 1)
    assert xi.as_tuple() == (1, -1, -1, 1) and {type(w) for w in xi.as_tuple()} == {int}
    assert xi == measurement.OUTCOMES[6] and xi.to_index() == 6
    assert np.array_equal(marginal_element(np.int64(-1)), marginal_element(-1))
    povm = sharp_povm(chsh_optimal_angles().x)
    assert povm.element(np.int32(-1)) is povm.element_minus


@pytest.mark.parametrize("pair", [("x",), ("x", "u", "v"), ("x", "u", "y"), (), None, 5, "xuv"], ids=repr)
def test_cross_marginal_takes_exactly_two_labels(pair):
    q = QuasiDistribution(np.full(16, 1 / 16))
    with pytest.raises(OutOfRange, match=r"^cross marginal needs a pair of observable labels, got "):
        cross_marginal(q, pair)
