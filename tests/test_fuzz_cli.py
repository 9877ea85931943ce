"""Exit-code fuzzing of the CLI: config documents and argv for all four
commands end in exit 0, 1 or 2, never in an exception, and every exit 2
names the field, flag or file at fault.

Each example runs `main` in-process in a fresh temporary directory. The
work per example is bounded: at most 1000 shots, 50 grid points, 2
validate trials and 500 levels of nesting, so no draw asks numpy for a
large array or Python for a long loop. A malformed shot count, in the
config or after --shots, may be one of the huge ints, 2**63 and up, which
numpy refuses before it allocates. Exit 1 is allowed only where it is by
design: for gammas no joint measurement realizes on the given directions.
Every admitted, realizable config exits 0: the dense gamma scan and the
`exact` search below look for one that does not. Hypothesis runs
derandomized, without an example database, so every run checks the same
examples.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellshot.cli import main
from bellshot.measurement import GAMMA_MIN
from conftest import near_boundary_config

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# what a config error may start with: a config field, a flag, or the file
NAMED = ("state", "gammas", "observables", "shots", "seed", "stream_count", "trials",
         "--out", "sweep gamma ", "sweep werner_eta ", "sweep --grid-range ",
         "config file ", "config is ", "config root ", "unknown config fields",
         "run requires shots")
OUTPUTS = ("exact.json", "shots.csv", "run_summary.json", "sweep_gamma.csv",
           "sweep_werner_eta.csv")

def mostly(usual, rare):
    """usual four draws in five, rare the fifth."""
    return st.integers(0, 4).flatmap(lambda roll: usual if roll else rare)


HUGE = st.sampled_from([2**63, 2**64, -2**64, 10**30, 10**400, -10**400])
NUMBERS = st.integers(-5, 1000) | st.floats() | HUGE
LEAVES = st.none() | st.booleans() | NUMBERS | st.text(max_size=5)
NESTED = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)
# a leaf wrapped in up to 500 lists
DEEP = st.builds(lambda leaf, depth: json.loads("[" * depth + json.dumps(leaf) + "]" * depth),
                 LEAVES, st.integers(1, 500))
ANY = NESTED | DEEP

UNIT = st.floats(-1.0, 1.0)
TABLE = st.lists(st.lists(UNIT, min_size=4, max_size=4), min_size=4, max_size=4)
MIXED = {"custom": {"real": [[0.25 * (i == j) for j in range(4)] for i in range(4)],
                    "imag": [[0.0] * 4] * 4}}
OPTIMAL = {"x": [0, 0, 1], "y": [1, 0, 0], "u": [0.5**0.5, 0, 0.5**0.5], "v": [0.5**0.5, 0, -0.5**0.5]}
# realizable on the optimal settings up to 1/sqrt(2); exit 1 beyond
GAMMA = mostly(st.floats(0.05, 0.7), st.floats(-1.0, -0.05) | st.floats(0.7, 1.0))
# per field: a well-formed value (None: leave the field out) and a malformed one
FIELDS = {
    "state": (
        st.sampled_from([{"bell": name} for name in ("phi_plus", "psi_minus")] + [MIXED])
        | st.builds(lambda eta: {"werner": eta}, st.floats(0.0, 1.0)),
        st.builds(lambda eta: {"werner": eta}, NUMBERS | ANY)
        | st.builds(lambda real, imag: {"custom": {"real": real, "imag": imag}}, TABLE | ANY, ANY)
        | st.dictionaries(st.sampled_from(["bell", "werner", "custom", "qutrit"]), ANY, max_size=2)
        | ANY,
    ),
    "gammas": (GAMMA | st.fixed_dictionaries({k: GAMMA for k in "xyuv"}),
               NUMBERS | st.fixed_dictionaries({k: GAMMA | NUMBERS | ANY for k in "xyuv"}) | ANY),
    "observables": (st.none() | st.just(OPTIMAL),
                    st.fixed_dictionaries({k: st.lists(UNIT | NUMBERS, min_size=3, max_size=3) | ANY
                                           for k in "xyuv"}) | ANY),
    # at most 1000 shots, or more than numpy can hold: run draws every one of them
    "shots": (st.integers(1, 1000),
              st.integers(-3, 0) | HUGE | ANY.filter(lambda v: type(v) is not int or not 0 < v < 2**60)),
    "seed": (st.integers(0, 2**64 - 1), st.integers(-2**65, 2**65) | ANY),
    "stream_count": (st.integers(1, 8) | st.just(2**70), st.integers(-2, 0) | ANY),
    "extra": (st.none(), ANY),
}


@st.composite
def config_docs(draw):
    """A config document: mostly an object whose fields are mostly well formed."""
    if draw(st.integers(0, 19)) == 0:
        return draw(ANY)
    doc = {}
    for key, (valid, malformed) in FIELDS.items():
        roll = draw(st.integers(0, 19))
        value = draw(malformed if roll == 18 else valid)
        if roll < 19 and value is not None:
            doc[key] = value
    return doc


def number_text(usual, rare):
    return mostly(usual.map(str), rare.map(str) | st.sampled_from(["1.5", "x", ""]))


@st.composite
def invocations(draw):
    """argv for one command, and what goes at its --config and --out."""
    command = draw(st.sampled_from(["exact", "run", "sweep", "validate"]))
    argv = [command]
    seed = number_text(st.integers(0, 2**64 - 1), st.integers(-2**65, 2**65))
    if command == "validate":
        if draw(st.booleans()):
            argv += ["--seed", draw(seed)]
        argv += ["--trials", draw(number_text(st.integers(1, 2), st.integers(-3, 0)))]
        return argv, None, None
    if command == "run":
        if draw(st.booleans()):
            argv += ["--seed", draw(seed)]
        if draw(st.booleans()):
            argv += ["--shots", draw(number_text(st.integers(1, 1000), st.integers(-3, 0) | HUGE))]
    if command == "sweep":
        argv += ["--axis", draw(st.sampled_from(["gamma", "werner_eta"]))]
        point = mostly(st.floats(0.0, 1.0), st.floats(0.0, 1.5) | st.floats()).map(repr)
        if draw(st.booleans()):
            argv += ["--grid-values", *draw(st.lists(point, min_size=1, max_size=50))]
        else:
            points = number_text(st.integers(2, 50), st.integers(-2, 1) | st.floats(2, 50))
            argv += ["--grid-range", draw(point), draw(point), draw(points)]
    config = draw(st.sampled_from(["file"] * 15 + ["missing", "directory", "not_utf8", "deep", "text"]))
    out = draw(st.sampled_from(["new"] * 9 + ["file", "under_file", "output_is_directory"]))
    return argv, (config, draw(config_docs())), out


def place_config(tmp, config) -> str:
    kind, doc = config
    path = os.path.join(tmp, "config.json")
    contents = {"file": json.dumps(doc).encode(), "not_utf8": b"\xff\xfe{}",
                "deep": b"[" * 5000, "text": b"{\"state\": "}
    if kind == "directory":
        os.mkdir(path)
    elif kind in contents:
        with open(path, "wb") as fh:
            fh.write(contents[kind])
    return path


def place_out(tmp, kind) -> str:
    out = os.path.join(tmp, "out")
    if kind in ("file", "under_file"):
        open(out, "w").close()
        return os.path.join(out, "sub") if kind == "under_file" else out
    if kind == "output_is_directory":
        for name in OUTPUTS:
            os.makedirs(os.path.join(out, name))
    return out


def exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing argv
            code = exc.code
    return code, err.getvalue()


@FIXED
@given(invocations())
def test_every_invocation_exits_0_1_or_2_and_names_what_is_wrong(invocation):
    argv, config, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            argv = [*argv, "--config", place_config(tmp, config), "--out", place_out(tmp, out)]
        code, err = exit_code_and_stderr(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 1:  # unrealizable gammas
        assert err.startswith("error: joint element("), err
    if code == 2:
        if ": error: " in err:  # argparse names the argument
            assert "argument" in err, err
        else:
            (line,) = [line for line in err.splitlines() if line.startswith("config error: ")]
            assert line.removeprefix("config error: ").startswith(NAMED), line


README_CONFIG = {"state": {"bell": "psi_minus"}, "gammas": 0.7071067811865476}


@pytest.mark.parametrize("doc", [README_CONFIG, near_boundary_config()], ids=["readme", "near_boundary"])
@pytest.mark.parametrize("grid", [["0.2053", "1", "3000"], ["-1", "-0.2053", "3000"]],
                         ids=["positive", "negative"])
def test_dense_gamma_scan_from_the_floor_never_exits_1(tmp_path, doc, grid):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path), "--axis", "gamma",
            "--grid-range", *grid]
    assert exit_code_and_stderr(argv) == (0, "")
    with open(tmp_path / "sweep_gamma.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3000 and {row["realizable"] for row in rows} == {"0", "1"}
    for row in rows:  # equal gammas: every shot has |S| = 2 / gamma^2
        assert float(row["abs_single_shot_S"]) == pytest.approx(2.0 / float(row["gamma"]) ** 2,
                                                               rel=1e-12)


@st.composite
def exact_configs(draw):
    """A custom state, pure or mixed, on random settings with signed, unequal
    gammas down to 0.1 in magnitude, each pair scaled to the positivity
    boundary (1 - 1e-9) when drawn tight or when it lies beyond it."""
    rank = draw(st.integers(1, 4))
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank)))
    g = g.reshape(2, 4, rank)
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    if np.trace(m).real < 1e-3:
        m = np.eye(4)
    rho = m / np.trace(m).real
    blochs = []
    for _ in range(4):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        blochs.append(v / np.linalg.norm(v) if np.linalg.norm(v) > 0.1 else np.array([0.0, 0.0, 1.0]))
    gs = [draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([1.0, -1.0])) for _ in range(4)]
    tight = draw(st.booleans())
    for i, j in ((0, 1), (2, 3)):
        worst = math.sqrt(gs[i] ** 2 + gs[j] ** 2
                          + 2.0 * abs(gs[i] * gs[j]) * abs(float(blochs[i] @ blochs[j])))
        if tight or worst > 1.0:
            gs[i], gs[j] = (gamma * (1.0 - 1e-9) / worst for gamma in (gs[i], gs[j]))
    return {
        "state": {"custom": {"real": rho.real.tolist(), "imag": rho.imag.tolist()}},
        "observables": {k: v.tolist() for k, v in zip("xyuv", blochs)},
        "gammas": dict(zip("xyuv", gs)),
    }


@settings(FIXED, max_examples=200)
@given(exact_configs())
def test_exact_on_admitted_realizable_configs_never_exits_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        code, err = exit_code_and_stderr(["exact", "--config", cfg, "--out", tmp])
    if abs(math.prod(doc["gammas"].values())) >= GAMMA_MIN:
        assert (code, err) == (0, "")
    else:  # below the amplification floor
        assert code == 2, err
        assert err.startswith("config error: gammas: |gamma_x gamma_y gamma_u gamma_v| = "), err
