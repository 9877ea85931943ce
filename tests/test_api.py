"""The package manifest: `bellshot.__all__` against `__init__`'s imports,
and `pyproject.toml`'s version against `bellshot.__version__`."""

import ast
import types
import warnings
from pathlib import Path

import pytest

import bellshot


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
