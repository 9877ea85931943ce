"""The package manifest: `bellshot.__all__` against `__init__`'s imports,
`pyproject.toml`'s version against `bellshot.__version__`, the rule that
a pipeline function has one binding, on the module that defines it, so a
stage patched there is the stage every command calls, and the rule that a
public entry point refuses a bad argument with a BellshotError."""

import ast
import importlib
import inspect
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bellshot
from bellshot import (
    BellshotError,
    GammaSet,
    InversionKernel,
    QuasiDistribution,
    RngConfig,
    SharpPovm,
    bloch_operator,
    build_kernel,
    ch_report,
    ch_verdict,
    chsh_report,
    chsh_verdict,
    custom_state,
    invert_distribution,
    inversion,
    kernel_1d,
    measurement,
    observable_set,
    sample_indices,
    validate_all,
    werner_state,
)
from bellshot.cli import main
from bellshot.sampler import ShotDraws
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
          inversion: ("kernel_tables", "invert_distribution")}

# the calls each command makes to each stage, directly or through another stage
ALL_FIVE = {"born_traces": 1, "product_povm": 1, "born_probabilities": 1, "kernel_tables": 1,
            "invert_distribution": 3}
STAGE_CALLS = {
    "exact": ALL_FIVE,
    "run": ALL_FIVE,
    "sweep_gamma": {"born_traces": 1, "product_povm": 1, "kernel_tables": 1},
    "sweep_werner_eta": {"born_traces": 1, "product_povm": 1, "born_probabilities": 1, "kernel_tables": 1},
}


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
    "chsh_report": lambda v: chsh_report(kernel(), v),
    "ch_report": lambda v: ch_report(kernel(), v),
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
BAD = {"abc": "abc", "None": None, "ragged": [[1.0], [1.0, 2.0]], "nan": float("nan"), "10**400": 10**400,
       "1.5": 1.5}
CASES = [(entry, bad) for entry in NUMERIC for bad in BAD if bad != "1.5"] + [
    # 10**400 trials is an integer count, admitted as the CLI admits it, and would never end
    (entry, bad) for entry in INTEGER for bad in BAD if (entry, bad) != ("validate_all", "10**400")]


@pytest.mark.parametrize("entry,bad", CASES)
def test_public_entry_points_refuse_bad_arguments_with_a_bellshot_error(entry, bad):
    with pytest.raises(BellshotError):
        ENTRY_POINTS[entry](BAD[bad])
