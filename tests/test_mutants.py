"""The mutant matrix, mutation testing as in DeMillo, Lipton and Sayward, IEEE Computer 11(4),
34 (1978). Each mutant replaces one function on its defining module, so one patch reaches every
command, and runs through main on each of COMMANDS and CONFIGS, and on VALIDATE. Each cell is:

- caught: exit 1, nothing written, stderr naming a route of ROUTES; for validate, exit 1 and
  each check that failed, with the route of its first failure;
- equivalent: exit 0 and the unpatched run's bytes, as is any cell that never calls the mutant;
- rounding: exit 0, the unpatched run's text, and each number in it within 1e-12;
- gap: anything else, such as a validate exit 0, whose stdout prints counts, not values;
  a raw traceback errors the cell.
Every cell is checked against the tables, so a cell that changes class fails by name.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from bellshot import inversion, linalg, measurement, observables, sampler
from bellshot.cli import main
from bellshot.validate import random_admissible_settings
from conftest import ROOT_HALF, near_boundary_config, random_state_matrix

COMMANDS = {
    "exact": ["exact"],
    "run": ["run", "--shots", "1000"],
    "sweep_gamma": ["sweep", "--axis", "gamma", "--grid-range", "0.5", "1", "6"],
    "sweep_werner_eta": ["sweep", "--axis", "werner_eta", "--grid-range", "0", "1", "5"],
}
VALIDATE = ["validate", "--seed", "7", "--trials", "4"]


def drawn_config(seed: int) -> dict:
    """Settings and gammas drawn by validate.random_admissible_settings, then a random full-rank state."""
    rng = np.random.default_rng(seed)
    settings, gammas = random_admissible_settings(rng)
    rho = random_state_matrix(rng)
    return {"state": {"custom": {"real": rho.real.tolist(), "imag": rho.imag.tolist()}},
            "observables": {k: settings.get(k).bloch.tolist() for k in "xyuv"},
            "gammas": {k: float(g) for k, g in zip("xyuv", gammas.as_tuple())}}


CONFIGS = {"singlet": {"state": {"bell": "psi_minus"}, "gammas": ROOT_HALF},
           "near_boundary": near_boundary_config(), "drawn_1": drawn_config(1), "drawn_2": drawn_config(2)}

# what corrupted_kernel, corrupted_inversion and nan_in_the_kernel_tables add to each table or
# distribution of a stack
KERNEL_SHIFT, QUASI_SHIFT, KERNEL_NAN = np.zeros((16, 16)), np.zeros(16), np.zeros((16, 16))
KERNEL_SHIFT[[0, 3], 7] = 1e-3, -1e-3
QUASI_SHIFT[[0, 3]] = 1e-6, -1e-6
KERNEL_NAN[3, 5] = np.nan

# name: (module, function, make), make(original) returning the replacement. Each keeps every
# constructor's invariants, except the NaN that a gamma sweep's column-sum check must see
MUTANTS = {
    # the POVM elements of outcomes 0 and 1, (+,+,+,+) and (+,+,+,-), swapped
    "swapped_product_elements": (measurement, "product_povm",
                                 lambda f: lambda a, b: f(a, b)[[1, 0, *range(2, 16)]]),
    "born_traces_of_the_transpose": (measurement, "born_traces",
                                     lambda f: lambda rho, ops: f(np.swapaxes(rho, -1, -2), ops)),
    # the sharp POVM of -n, whose elements are n's swapped; only validate builds one
    "swapped_sharp_elements": (observables, "sharp_povm",
                               lambda f: lambda obs: f(observables.ObservableSpec(obs.label, -obs.bloch))),
    # s(-xi) = s(xi), so S and CH keep their values; the pair marginals are the opposite signs'
    "inversion_of_the_reversed_statistics": (inversion, "inverted_entries",
                                             lambda f: lambda k, p: f(k, p[..., ::-1])),
    # the kernel's y factor is not GammaSet's, which the single-shot CHSH closed form reads
    "kernel_of_a_y_gamma_one_percent_small": (inversion, "kernel_tables",
                                              lambda f: lambda g: f(np.asarray(g) * [1.0, 0.99, 1.0, 1.0])),
    # a unit Bloch operator still, so every POVM builds; the pair route and validate's sharp
    # projectors read belltests.PAULIS, not bloch_operator
    "bloch_operator_with_y_and_z_swapped": (observables, "bloch_operator",
                                            lambda f: lambda n: f(np.asarray(n)[[0, 2, 1]])),
    # 1e-3 moved from row 3 to row 0 of column 7, so the column sums hold; s(xi) is +2 at outcome
    # 0 and -2 at 3, so the kernel-sum route of single-shot CHSH at outcome 7 moves by 4e-3
    "corrupted_kernel": (inversion, "kernel_tables", lambda f: lambda g: f(g) + KERNEL_SHIFT),
    # 1e-6 moved from outcome 3 to 0, so the sum holds and ensemble S moves by 4e-6, where the
    # observed-weighted single-shot route does not
    "corrupted_inversion": (inversion, "inverted_entries", lambda f: lambda k, p: f(k, p) + QUASI_SHIFT),
    "nan_in_the_kernel_tables": (inversion, "kernel_tables", lambda f: lambda g: f(g) + KERNEL_NAN),
    "draw_off_by_one": (sampler, "_draw", lambda f: lambda cdf, table, u: f(cdf, table, u) ^ 1),
    "cdf_of_the_reversed_probabilities": (sampler, "_bucket_table", lambda f: lambda p: f(p[::-1])),
}


def patch(monkeypatch, name: str) -> None:
    module, function, make = MUTANTS[name]
    monkeypatch.setattr(module, function, make(getattr(module, function)))


# each route a caught cell may name, a pattern its message must match in full; a disagreement is
# matched without its two numbers, which must differ by more than the route tolerance
ROUTES = {
    "single-shot CHSH at outcome 7":
        r"single-shot CHSH paths disagree at OutcomeIndex\(x=1, y=-1, u=-1, v=-1\)",
    "single-shot CHSH": r"single-shot CHSH paths disagree at OutcomeIndex\(x=-?1, y=-?1, u=-?1, v=-?1\)",
    "ensemble CHSH": r"ensemble CHSH paths disagree at S",
    "ensemble CHSH of a Werner block": r"ensemble CHSH paths disagree at werner_eta \S+",
    "pair marginal": r"A-B pair marginal paths disagree at (werner_eta \S+ )?(observed|quasi) "
                     r"\([xy], [uv]\) = \([+-]1, [+-]1\)",
    "empirical pair marginal": r"empirical pair marginal paths disagree at \([xy], [uv]\) = \([+-]1, [+-]1\)",
    "NaN kernel entry": r"kernel table\[3, 5\] = nan is not finite",
    "NaN column sums": r"kernel column sums deviate from 1 by nan",
    "cdf interval at shot 1": r"shot 1 drew outcome \d+ at u = \S+, outside its cdf interval \[\S+, \S+\)",
    "inverted POVM": r"inverted POVM's \([xy], [uv]\) marginal is \S+ off its projectors",
    "sharp POVM": r"sharp POVM for \[.*\] is not the \+1 eigenprojector of n\.sigma",
}


def route(message: str):
    """The ROUTES name of a failure's message, or None."""
    if found := re.fullmatch(r"(.*): (\S+) vs (\S+)", message):
        # plain reprs: float() refuses "np.float64(1.0)"; a NaN fails <= and stays caught
        if abs(float(found[2]) - float(found[3])) <= linalg.DUAL_PATH_TOL:
            return None
        message = found[1]
    return next((name for name, pattern in ROUTES.items() if re.fullmatch(pattern, message)), None)


def run(argv) -> tuple:
    """main(argv)'s exit code, stdout and stderr. A raw traceback errors the cell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def outputs(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else {}


NUMBER = re.compile(rb"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf)")


def within_rounding(got: bytes, want: bytes) -> bool:
    got, want = NUMBER.split(got), NUMBER.split(want)  # text, number, text, ..., text
    return (len(got) == len(want) and got[::2] == want[::2]
            and all(abs(float(a) - float(b)) <= 1e-12 for a, b in zip(got[1::2], want[1::2])))


def command_class(code, stdout, stderr, files: dict, reference: dict) -> str:
    prefix = "internal consistency failure: "
    if code == 1 and not (stdout or files) and stderr.startswith(prefix) and stderr.endswith("\n"):
        if name := route(stderr[len(prefix):-1]):
            return f"caught: {name}"
    if code == 0 and not stderr and files.keys() == reference.keys():
        if files == reference:
            return "equivalent"
        if all(within_rounding(files[name], reference[name]) for name in files):
            return "rounding"
    return "gap"


def validate_class(code, stdout) -> str:
    if code != 1:
        return "gap"
    # a check that raised ran no verdict: it is named with what it raised
    failed = re.findall(r"^  (\S+): \d+ checks FAIL\n    (?:trial \d+: |raised (\w+)\(')?(.*?)(?:'\))?$",
                        stdout, flags=re.M)
    return "caught: " + "; ".join(f"{check}{raised and f' raised {raised}'}: {route(message)}"
                                  for check, raised, message in failed)


# validate's failures when an exact analysis fails a route: in each trial of its own check, and
# in the sampler check, which runs the analysis first; and when the kernel check raises too
ANALYSIS = "belltests.exact_analysis: {0}; sampler.determinism raised ConsistencyError: {0}"
KERNEL = "inversion.kernel raised ConsistencyError: {0}; " + ANALYSIS

# the route each mutant is caught by on each command, and for validate the checks that fail;
# a cell of the tables below is exempt
CAUGHT = {
    "swapped_product_elements": {**dict.fromkeys(COMMANDS, "pair marginal"),
                                 "validate": "inversion.kernel: inverted POVM; " + ANALYSIS.format("pair marginal")},
    "born_traces_of_the_transpose": {**dict.fromkeys(["exact", "run", "sweep_gamma"], "pair marginal"),
                                     "validate": ANALYSIS.format("pair marginal")},
    "swapped_sharp_elements": {"validate": "observables.sharp_povm: sharp POVM"},
    "inversion_of_the_reversed_statistics": {"exact": "pair marginal", "run": "pair marginal",
                                             "validate": ANALYSIS.format("pair marginal")},
    "kernel_of_a_y_gamma_one_percent_small": {**dict.fromkeys(COMMANDS, "single-shot CHSH"),
                                              "validate": KERNEL.format("single-shot CHSH")},
    "bloch_operator_with_y_and_z_swapped": {
        **dict.fromkeys(["exact", "run", "sweep_gamma"], "pair marginal"),
        "validate": "observables.sharp_povm: sharp POVM; inversion.kernel: inverted POVM; "
                    + ANALYSIS.format("pair marginal")},
    "corrupted_kernel": {**dict.fromkeys(COMMANDS, "single-shot CHSH at outcome 7"),
                         "validate": KERNEL.format("single-shot CHSH at outcome 7")},
    "corrupted_inversion": {"exact": "ensemble CHSH", "run": "ensemble CHSH",
                            "sweep_werner_eta": "ensemble CHSH of a Werner block",
                            "validate": ANALYSIS.format("ensemble CHSH")},
    "nan_in_the_kernel_tables": {**dict.fromkeys(COMMANDS, "NaN kernel entry"), "sweep_gamma": "NaN column sums",
                                 "validate": KERNEL.format("NaN kernel entry")},
    "draw_off_by_one": {"run": "cdf interval at shot 1",
                        "validate": "sampler.determinism raised ConsistencyError: cdf interval at shot 1"},
    "cdf_of_the_reversed_probabilities": {},
}


def cells(name: str, commands: str, configs: str, reason: str) -> dict:
    return {(name, command, config): reason for command in commands.split() for config in configs.split()}


EVERY = " ".join(CONFIGS)
ZERO_ONE = "at the optimal settings the singlet's outcomes 0 and 1 have one Born value: (x+y).(u+v) = (x+y).(u-v)"
FLIP = "one-qubit marginals are uniform and correlations even under a flip of every sign, so p(xi) = p(-xi)"
YZ = "the y/z swap is orthogonal on both Bloch vectors, and a Werner state's correlation -eta a.b keeps"

# cells that call the mutant and still write the unpatched run's bytes
EQUIVALENT = {
    **cells("swapped_product_elements", "run sweep_gamma", "singlet", ZERO_ONE),
    **cells("born_traces_of_the_transpose", "exact run sweep_gamma", "singlet", "the singlet is real, symmetric"),
    **cells("born_traces_of_the_transpose", "sweep_werner_eta", EVERY, "a Werner state is real and symmetric"),
    **cells("bloch_operator_with_y_and_z_swapped", "run", "singlet", YZ + " (singlet: eta = 1)"),
    **cells("cdf_of_the_reversed_probabilities", "run", "singlet", "the singlet's " + FLIP),
}

# cells whose outputs differ from the unpatched run's by rounding alone
ROUNDING = {
    **cells("swapped_product_elements", "exact sweep_werner_eta", "singlet", ZERO_ONE),
    **cells("inversion_of_the_reversed_statistics", "exact", "singlet", "the singlet's " + FLIP),
    **cells("inversion_of_the_reversed_statistics", "sweep_werner_eta", EVERY, "a Werner state's " + FLIP),
    **cells("bloch_operator_with_y_and_z_swapped", "exact sweep_gamma", "singlet", YZ + " (singlet: eta = 1)"),
    **cells("bloch_operator_with_y_and_z_swapped", "sweep_werner_eta", EVERY, YZ),
}

# cells caught by another route than CAUGHT names for their command
CAUGHT_CELLS = {
    **cells("inversion_of_the_reversed_statistics", "run", "singlet", "empirical pair marginal"),
}

# silently wrong outputs that no check sees yet
KNOWN_GAPS = {
    **cells("cdf_of_the_reversed_probabilities", "run", "near_boundary drawn_1 drawn_2",
            "nothing tests the counts against p: each draw is checked against the cdf it was drawn from, and "
            "both empirical-S routes read the same counts"),
    **cells("cdf_of_the_reversed_probabilities", "validate", "seed_7",
            "the sampler check compares two draws from one cdf, and two routes over the same shots"),
}

CELLS = [*((name, command, config) for name in MUTANTS for command in COMMANDS for config in CONFIGS),
         *((name, "validate", "seed_7") for name in MUTANTS)]


def expected_class(cell, called: bool) -> str:
    name, command, _ = cell
    for table, listed in ((KNOWN_GAPS, "gap"), (ROUNDING, "rounding"), (EQUIVALENT, "equivalent")):
        if cell in table:
            return listed
    if cell in CAUGHT_CELLS:
        return f"caught: {CAUGHT_CELLS[cell]}"
    if command in CAUGHT[name]:
        return f"caught: {CAUGHT[name][command]}"
    return "called, but in no table" if called else "equivalent"


def test_the_tables_name_only_cells_of_the_matrix_and_each_once():
    listed = [*EQUIVALENT, *ROUNDING, *KNOWN_GAPS, *CAUGHT_CELLS]
    assert len(listed) == len(set(listed)) and set(listed) <= set(CELLS) and list(CAUGHT) == list(MUTANTS)
    # and each command a mutant is caught on has a cell the other tables leave to it
    assert all(any(cell not in listed for cell in CELLS if cell[:2] == (name, command))
               for name, routes in CAUGHT.items() for command in routes)


@pytest.fixture(scope="module")
def unpatched(tmp_path_factory) -> dict:
    """(command, config): its argv, and its unpatched outputs."""
    base, made = tmp_path_factory.mktemp("unpatched"), {("validate", "seed_7"): (VALIDATE, None)}
    assert run(VALIDATE)[0] == 0
    for config, doc in CONFIGS.items():
        (path := base / f"{config}.json").write_text(json.dumps(doc))
        for command, argv in COMMANDS.items():
            argv, out = [*argv, "--config", str(path)], base / command / config
            assert run([*argv, "--out", str(out)])[::2] == (0, "")
            made[command, config] = argv, outputs(out)
    return made


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_each_cell_is_in_its_class(monkeypatch, tmp_path, unpatched, cell):
    name, command, config = cell
    argv, reference = unpatched[command, config]
    module, function, make = MUTANTS[name]
    replacement, calls = make(getattr(module, function)), []
    monkeypatch.setattr(module, function, lambda *args: calls.append(1) or replacement(*args))
    if command == "validate":
        code, stdout, stderr = run(argv)
        got = validate_class(code, stdout)
    else:
        code, stdout, stderr = run([*argv, "--out", str(tmp_path)])
        got = command_class(code, stdout, stderr, outputs(tmp_path), reference)
    assert got == expected_class(cell, bool(calls)), (code, stderr)
    assert calls or cell not in EQUIVALENT  # a cell that never calls the mutant needs no entry
