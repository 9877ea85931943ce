"""The package manifest: `bellshot.__all__` against `__init__`'s imports,
`pyproject.toml`'s version against `bellshot.__version__`, and the rule that
a pipeline function has one binding, on the module that defines it, so a
stage patched there is the stage every command calls."""

import ast
import importlib
import inspect
import types
import warnings
from collections import Counter
from pathlib import Path

import pytest

import bellshot
from bellshot import inversion, measurement
from bellshot.cli import main
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
