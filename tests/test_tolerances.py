"""Every tolerance lives in one table, at the top of `bellshot/linalg.py`.

A module-level `*_TOL`, `PROB_FLOOR` or `PROB_SUM_SLACK` bound anywhere else,
by assignment or by import, would start a second table, and so would a small
float literal compared against inside a function. The sixteen values are
pinned, so that changing one is a deliberate edit here as well.
"""

import ast
from pathlib import Path

import bellshot
from bellshot import linalg

PACKAGE = Path(bellshot.__file__).resolve().parent

TOLERANCES = {
    "HERMITIAN_TOL": 1e-12,
    "PSD_TOL": -1e-10,
    "TRACE_TOL": 1e-12,
    "BLOCH_NORM_TOL": 1e-12,
    "PROJECTOR_TOL": 1e-10,
    "COMPLETENESS_TOL": 1e-12,
    "COLUMN_SUM_TOL": 1e-12,
    "PROB_CLAMP_TOL": 1e-12,
    "PROB_SUM_TOL": 1e-10,
    "QUASI_SUM_TOL": 1e-10,
    "MARGINAL_CLAMP_TOL": 1e-10,
    "NEGATIVITY_TOL": 1e-10,
    "DUAL_PATH_TOL": 1e-10,
    "BOUNDARY_TOL": 1e-12,
    "PROB_FLOOR": -1e-10,
    "PROB_SUM_SLACK": 1e-6,
}


def is_tolerance(name: str) -> bool:
    return name.endswith("_TOL") or name in ("PROB_FLOOR", "PROB_SUM_SLACK")


def module_level_tolerances(path: Path) -> list[str]:
    """Tolerance names that the module's top-level statements bind."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
            continue
        else:
            continue
        names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if is_tolerance(name)]


def test_only_linalg_binds_tolerances():
    found = {path.name: module_level_tolerances(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module for module, names in found.items() if names} == {"linalg.py"}
    assert sorted(found["linalg.py"]) == sorted(TOLERANCES)


def test_tolerance_values_are_pinned():
    assert {name: getattr(linalg, name) for name in TOLERANCES} == TOLERANCES


def compared_small_literals(path: Path) -> list[float]:
    """Float literals x with 0 < |x| <= 1e-6 anywhere inside a comparison: a
    tolerance written where it is used rather than read from the table."""
    return [
        node.value
        for compare in ast.walk(ast.parse(path.read_text()))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) <= 1e-6
    ]


def test_no_comparison_outside_linalg_takes_a_literal_tolerance():
    found = {path.name: compared_small_literals(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "linalg.py"}
    assert {module: values for module, values in found.items() if values} == {}


ROUTE_AND_BOUND_TOLERANCES = ("DUAL_PATH_TOL", "BOUNDARY_TOL")


def reads(path: Path, names) -> bool:
    """Whether the module reads any of names, as linalg.NAME or as a bare name."""
    return names_in(ast.parse(path.read_text()), names)


def names_in(tree: ast.AST, names) -> bool:
    """Whether tree reads any of names, as module.NAME or as a bare name."""
    return any((isinstance(node, ast.Attribute) and node.attr in names)
               or (isinstance(node, ast.Name) and node.id in names)
               for node in ast.walk(tree))


def top_level_readers(path: Path, names) -> set[str]:
    """The top-level functions and classes of the module that read any of names, and
    "<module>" if a statement outside them does."""
    return {getattr(node, "name", "<module>") for node in ast.parse(path.read_text()).body
            if names_in(node, names)}


def test_only_belltests_and_validate_judge_routes_and_bounds():
    # linalg defines the two tolerances; belltests holds the one route check that raises
    # and the one bound rule; validate reports against them and never raises. A route
    # check or bound comparison written anywhere else, as in a command, fails here.
    found = {path.name for path in PACKAGE.glob("*.py") if reads(path, ROUTE_AND_BOUND_TOLERANCES)}
    assert found == {"linalg.py", "belltests.py", "validate.py"}


def test_belltests_compares_against_the_boundary_tolerance_only_in_its_bound_rule():
    # every verdict, list of verdicts and grid summary is judged by bound_rule, so a
    # violation predicate restated beside it fails here
    assert top_level_readers(PACKAGE / "belltests.py", ("BOUNDARY_TOL",)) == {"bound_rule"}


def test_validate_builds_no_born_operator_with_kron():
    # validate's reference Born values come from belltests.pauli_correlations, which reads
    # rho and the Pauli matrices only; a product operator built here from bloch_operator or
    # a POVM would share the code it checks
    assert not names_in(ast.parse((PACKAGE / "validate.py").read_text()), ("kron",))
