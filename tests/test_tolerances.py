"""Every tolerance lives in one table, at the top of `bellshot/linalg.py`.

A module-level `*_TOL`, `PROB_FLOOR` or `PROB_SUM_SLACK` bound anywhere else,
by assignment or by import, would start a second table, and so would a small
float literal compared against inside a function. The fifteen values are
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


def test_validate_builds_its_sharp_operators_from_the_paulis_alone():
    # validate's Born references live in belltests.exact_analysis, whose pair route reads rho
    # and the Pauli matrices only. Its inversion check compares the commands' kernel and
    # product POVM with kron products of projectors built from belltests.PAULIS; built from
    # bloch_operator or an observable's operator() they would share the code they check
    path = PACKAGE / "validate.py"
    assert not names_in(ast.parse(path.read_text()), ("bloch_operator", "operator"))
    assert top_level_readers(path, ("kron",)) == {"_check_inversion"}
    assert top_level_readers(path, ("PAULIS",)) == {"_check_observables", "_check_inversion"}


def loads(tree: ast.AST, name: str) -> bool:
    """Whether tree reads name, as module.name or as a bare name; binding it is no read."""
    return any(isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
               and name in (getattr(node, "id", None), getattr(node, "attr", None))
               for node in ast.walk(tree))


def test_only_ascii_reads_the_digit_words():
    # one routine writes integers as ASCII digit words, the 17 digits of '%.17g', from either
    # word table, and the shot index's low words come from a third table that only the CSV
    # sink reads; a second digit grouping written anywhere else fails here
    def readers(table):
        return {(path.name, getattr(node, "name", "<module>")) for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.parse(path.read_text()).body if loads(node, table)}

    found = readers("_DIGIT_WORDS")
    assert found == {("sampler.py", "_ascii")}
    assert readers("_TRIMMED_WORDS") == {("sampler.py", "_ascii")}
    assert readers("_INDEX_WORDS") == {("sampler.py", "_csv_rows")}


def test_only_the_sampler_reads_the_text_format():
    # run's shot rows and the sweep's rows are one layout of NUL-padded 4-byte words, written
    # by one module; a command that reads its formatter, word type or work arrays, or any
    # private sampler name, to lay out text of its own fails here
    text_format = ("_fixed_17g", "_percent_17g", "_WORD", "_Work")
    found = {path.name for path in PACKAGE.glob("*.py")
             if any(loads(ast.parse(path.read_text()), name) for name in text_format)}
    assert found == {"sampler.py"}
    private = {(path.name, node.attr) for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sampler"
               and node.attr.startswith("_")}
    assert private == set()


def test_only_the_exact_analysis_reads_the_born_pair_route():
    # one kernel-free Born reference route, run in one function, which the exact analysis of
    # every command that analyses a configuration and the gamma sweep call; a second caller of
    # the route or of that function written anywhere else fails here
    def readers(name):
        return {(path.name, getattr(node, "name", "<module>")) for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.parse(path.read_text()).body if loads(node, name)}

    assert readers("pauli_correlations") | readers("pair_probabilities") == {
        ("belltests.py", "require_born_pair_marginals")}
    assert readers("require_born_pair_marginals") == {("belltests.py", "exact_analysis"),
                                                      ("cli.py", "_sweep_columns")}


def test_belltests_marginalizes_q_only_through_pair_marginals():
    # the outcome signs are stated once, by measurement's sign table SIGN_BITS, and the A-B pair
    # marginals of a distribution over the 16 outcomes are mapped once, by PAIR_MARGINALS beside
    # it; a second derivation anywhere in the package, by itertools.product, by reshape(2, 2, 2, 2)
    # sums or by binding either name again, fails here
    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    reshapes = [(name, ast.unparse(node)) for name, node in nodes
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "reshape"
                and [literal(arg) for arg in node.args] in ([2, 2, 2, 2], [(2, 2, 2, 2)])]
    assert reshapes == []
    products = [(name, ast.unparse(node)) for name, node in nodes
                if isinstance(node, ast.Attribute) and node.attr == "product"
                and getattr(node.value, "id", None) == "itertools"
                or isinstance(node, ast.ImportFrom) and node.module == "itertools"
                and "product" in [alias.name for alias in node.names]]
    assert products == []
    binders = {(name, target.id) for name, node in nodes if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and target.id in ("SIGN_BITS", "PAIR_MARGINALS")}
    assert binders == {("measurement.py", "SIGN_BITS"), ("measurement.py", "PAIR_MARGINALS")}
    readers = {(name, getattr(node, "name", "<module>")) for name, tree in trees.items()
               for node in tree.body if loads(node, "PAIR_MARGINALS")}
    assert readers == {("belltests.py", "ch_report"), ("belltests.py", "require_born_pair_marginals"),
                       ("validate.py", "_check_inversion")}


def unused_imports(path: Path) -> list[str]:
    """The names that the module's imports bind and that nothing in it reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # no linter runs on the package, so a name left imported after the code that read it was
    # deleted fails here; __init__ imports to export
    found = {path.name: unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {module: names for module, names in found.items() if names} == {}


def test_no_test_module_imports_a_name_it_never_reads():
    # the same guard over the tests: a helper or fixture name left imported after the test
    # that read it moved to its replacement fails here
    found = {path.name: unused_imports(path) for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}
