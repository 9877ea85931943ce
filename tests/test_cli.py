"""End-to-end CLI tests driven through main(argv) and real files."""

import csv
import gc
import hashlib
import json
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bellshot import cli, measurement, sampler
from bellshot.belltests import ensemble_chsh, single_shot_ch_table, single_shot_chsh_table
from bellshot.cli import SWEEP_BLOCK, _atomic_write, main
from bellshot.config import ExperimentConfig
from bellshot.errors import ConfigError, ConsistencyError, GammaOutOfRange, NotPositive, OutOfRange
from bellshot.inversion import build_kernel, gamma_free_quasi, invert_distribution, kernel_1d
from bellshot.measurement import GammaSet, joint_povm, observed_statistics
from bellshot.sampler import SHOT_CHUNK, stream_summary
from bellshot.states import werner_state
from conftest import ROOT_HALF, SINGLET, near_boundary_config, projector
from test_mutants import patch, route
from test_sampler import searchsorted_indices, sequential_shot_csv

TWO_ROOT_TWO = 2.0 * np.sqrt(2.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def singlet_config(tmp_path, **extra):
    doc = {"state": {"bell": "psi_minus"}, "gammas": ROOT_HALF}
    doc.update(extra)
    return write_config(tmp_path, doc)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"gammas": 0.5}, 'missing required field "state"'),
        ({"state": {"bell": "psi_minus"}}, 'missing required field "gammas"'),
        ({"state": {"bell": "psi_minus"}, "gammas": 1.5}, "gammas:"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "extra": 1}, "unknown config fields"),
        ({"state": {"bell": "psiminus"}, "gammas": 0.5}, "state.bell: unknown name"),
        ({"state": {"werner": 1.5}, "gammas": 0.5}, "state.werner:"),
        (
            {
                "state": {"bell": "psi_minus"},
                "gammas": 0.5,
                "observables": {"x": [1, 0], "y": [1, 0, 0], "u": [0, 1, 0], "v": [0, 0, 1]},
            },
            "observables.x",
        ),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "shots": -3}, "shots:"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "seed": -1}, "seed:"),
        (["not", "an", "object"], "config root must be a JSON object"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "shots": True}, "shots:"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "seed": True}, "seed:"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "stream_count": True}, "stream_count:"),
        ({"state": {"bell": "psi_minus"}, "gammas": 0.5, "seed": 2**64}, "seed:"),
        # reals: JSON booleans, strings, nulls and out-of-range ints are refused
        ({"state": {"bell": "psi_minus"}, "gammas": True}, "gammas: expected a single real"),
        ({"state": {"werner": True}, "gammas": 0.5}, "state.werner: expected a real"),
        ({"state": {"werner": "0.5"}, "gammas": 0.5}, "state.werner: expected a real"),
        ({"state": {"werner": 10**400}, "gammas": 0.5}, "state.werner: expected a real"),
        (
            {
                "state": {"bell": "psi_minus"},
                "gammas": 0.5,
                "observables": {"x": [True, 0, 0], "y": [1, 0, 0], "u": [0, 1, 0], "v": [0, 0, 1]},
            },
            "observables.x: expected a 3-vector of reals",
        ),
        (
            {"state": {"bell": "psi_minus"}, "gammas": {"x": "0.5", "y": 0.5, "u": 0.5, "v": 0.5}},
            "gammas.x: expected a real",
        ),
        (
            {"state": {"bell": "psi_minus"}, "gammas": {"x": 0.5, "y": 0.5, "u": 0.5, "v": None}},
            "gammas.v: expected a real",
        ),
        ({"state": {"bell": "psi_minus"}, "gammas": "0.5"}, "gammas: expected a single real"),
        (
            {"state": {"custom": {"real": np.eye(4).tolist(), "imag": 0}}, "gammas": 0.5},
            "state.custom.imag: expected a 4x4 table of reals",
        ),
        (
            {"state": {"custom": {"real": (np.eye(4) / 4).tolist(),
                                  "imag": [[False] * 4] * 4}}, "gammas": 0.5},
            "state.custom.imag: expected a 4x4 table of reals",
        ),
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, doc, fragment):
    cfg = write_config(tmp_path, doc)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert fragment in err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["run", "--seed", str(2**64)], "seed: expected an unsigned 64-bit integer"),
        (["run", "--seed", "-1"], "seed:"),
        (["run", "--shots", "-1"], "shots:"),
        (["sweep", "--axis", "werner_eta", "--grid-range", "0", "1", "2.5"], "POINTS"),
        # beyond numpy's size limit, so linspace refuses before allocating
        (["sweep", "--axis", "werner_eta", "--grid-range", "0", "1", "1e300"],
         "--grid-range POINTS 1e+300 is too many"),
    ],
)
def test_argv_errors_exit_2(tmp_path, capsys, argv, fragment):
    cfg = singlet_config(tmp_path, shots=10)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert fragment in err


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_validate_seed_out_of_range_exits_2(capsys, seed):
    assert main(["validate", "--seed", seed, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "seed: expected an unsigned 64-bit integer" in err and "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_validate_trials_below_one_exits_2(capsys, trials):
    assert main(["validate", "--seed", "7", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: trials: expected a positive integer, got {trials}\n"
    assert captured.out == ""


def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exact", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["exact", "--config", missing, "--out", str(tmp_path)]) == 2
    assert "config file not found" in capsys.readouterr().err


def nested(value, depth: int) -> str:
    return "[" * depth + value + "]" * depth


@pytest.mark.parametrize("content,message", [
    (None, "config file cannot be read: {path}: Is a directory"),
    (b"\xff\xfe{}", "config file is not UTF-8 text: {path}: 'utf-8' codec can't decode"),
    (b"[" * 100000, "config file nests too deeply to decode: {path}"),
    (b'{"gammas": 1' + b"0" * 5000 + b"}", "config is not valid JSON: Exceeds the limit"),
    # deep lists in a field are refused unwalked, and shown only 8 levels down
    (f'{{"state": {{"bell": "psi_minus"}}, "gammas": {nested("0.5", 400)}}}'.encode(),
     "gammas: expected a single real or keys \"x\", \"y\", \"u\", \"v\", got "
     + nested("...", 9) + "\n"),
    (f'{{"state": {{"bell": "psi_minus"}}, "gammas": {nested("0.5", 300)}}}'.encode(),
     "gammas: expected a single real"),
    (f'{{"state": {{"bell": {nested("", 400)}}}, "gammas": 0.5}}'.encode(),
     "state.bell: unknown name " + nested("...", 9) + "; expected one of"),
    (f'{{"state": {{"bell": "psi_minus"}}, "gammas": 0.5, "shots": {nested("", 400)}}}'.encode(),
     "shots: expected a nonnegative integer, got " + nested("...", 9) + "\n"),
], ids=["directory", "utf16_bom", "deep_document", "huge_int", "gammas_400_deep",
        "gammas_300_deep", "bell_400_deep", "shots_400_deep"])
def test_unreadable_config_exits_2_naming_file_or_field(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert message.format(path=path) in err


@pytest.mark.parametrize("command,output", [
    ("exact", "exact.json"), ("run", "shots.csv"), ("sweep", "sweep_gamma.csv")])
def test_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, output):
    cfg = singlet_config(tmp_path, shots=10)
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    extra = ["--axis", "gamma", "--grid-values", "0.5"] if command == "sweep" else []
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == (
        f"config error: --out: cannot write {out / output}: Is a directory\n")
    assert os.listdir(out) == [output]


@pytest.mark.parametrize("command", ["exact", "sweep"])
@pytest.mark.parametrize("flag", ["--seed", "--shots"])
def test_seed_and_shots_are_run_only_flags(tmp_path, capsys, command, flag):
    cfg = singlet_config(tmp_path)
    extra = ["--axis", "gamma", "--grid-values", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--out", str(tmp_path / "out"), flag, "3", *extra])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "run"])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, command):
    cfg = singlet_config(tmp_path, shots=10)
    regular_file = tmp_path / "f"
    regular_file.write_text("")
    for out in (regular_file / "sub", regular_file):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {str(out)!r}") and "Traceback" not in err


def test_exact_solves_one_eigenproblem_per_stack_and_never_encodes_in_pure_python(
        tmp_path, monkeypatch):
    # one eigvalsh for the state, one for both subsystems' eight POVM elements
    calls = {"eigvalsh": 0, "_make_iterencode": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigvalsh")
    counted(json.encoder, "_make_iterencode")  # json's encoder when indent is set
    cfg = singlet_config(tmp_path)
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls["eigvalsh"] == 2
    assert calls["_make_iterencode"] == 0


def test_in_process_exact_leaves_no_cyclic_garbage(tmp_path):
    # a reference cycle per call, such as a nested function that calls itself, holds its
    # memory until the collector runs, and grows a long-lived process's peak RSS
    cfg = write_config(tmp_path, near_boundary_config())  # a custom state and observables
    argv = ["exact", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # first-call set-up
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("entry", [
    "runpy.run_module('bellshot.cli', run_name='__main__')",  # python -m bellshot.cli
    "from bellshot.cli import process_main; process_main()",  # the bellshot script
], ids=["module", "script"])
def test_a_bellshot_process_freezes_its_import_time_objects(entry):
    code = ("import atexit, gc, runpy, sys; atexit.register(lambda: print(gc.get_freeze_count())); "
            f"sys.argv = ['bellshot', '--version']; {entry}")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    version, frozen = proc.stdout.splitlines()
    assert version.startswith("bellshot ")
    assert int(frozen) > 0
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert '\nbellshot = "bellshot.cli:process_main"\n' in pyproject


def test_in_process_main_leaves_the_collector_unfrozen(tmp_path):
    cfg = write_config(tmp_path, near_boundary_config())
    frozen = gc.get_freeze_count()
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == frozen


def test_exact_singlet_optimal(tmp_path):
    cfg = singlet_config(tmp_path)
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "exact.json") as fh:
        doc = json.load(fh)

    assert doc["ensemble_S"] == pytest.approx(-TWO_ROOT_TWO, abs=1e-9)
    assert doc["bound"] == 2.0
    assert sum(doc["observed_statistics"]) == pytest.approx(1.0, abs=1e-10)
    assert sum(doc["quasi_distribution"]) == pytest.approx(1.0, abs=1e-10)
    assert doc["min_quasi_entry"] == pytest.approx((1 - np.sqrt(2)) / 16, abs=1e-10)
    assert doc["negative"] is True
    assert all(abs(s) == 2.0 for s in doc["s_values"])
    assert np.allclose(np.abs(doc["single_shot_S"]), 4.0, atol=1e-9)
    assert doc["bounds"] == [0.0, -1.0]
    assert doc["verdicts"]["chsh"]["ensemble_S"]["status"] == "violated"
    assert doc["verdicts"]["ch"]["single_shot_C"]["all_violated"] is True
    assert "index = 8*[x=-1]" in doc["ordering"]
    assert doc["gammas"]["x"] == pytest.approx(ROOT_HALF)


def test_exact_mixed_state_satisfies_bounds(tmp_path):
    cfg = write_config(tmp_path, {"state": {"werner": 0.0}, "gammas": 0.6})
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "exact.json") as fh:
        doc = json.load(fh)
    assert doc["ensemble_S"] == pytest.approx(0.0, abs=1e-10)
    assert doc["verdicts"]["chsh"]["ensemble_S"]["status"] == "satisfied"
    assert doc["negative"] is False
    # per-shot values still break the bound even for the fully mixed state
    assert all(v["status"] == "violated" for v in doc["verdicts"]["chsh"]["single_shot_S"])


def test_custom_state_config(tmp_path):
    real = (np.eye(4) / 4).tolist()
    imag = np.zeros((4, 4)).tolist()
    cfg = write_config(
        tmp_path, {"state": {"custom": {"real": real, "imag": imag}}, "gammas": 0.5}
    )
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "exact.json") as fh:
        doc = json.load(fh)
    assert doc["ensemble_S"] == pytest.approx(0.0, abs=1e-10)


def test_run_single_shot_summary_matches_csv(tmp_path):
    cfg = singlet_config(tmp_path, seed=17)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--shots", "1"]) == 0
    with open(out / "run_summary.json") as fh:
        summary = json.load(fh)
    with open(out / "shots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert summary["shots"] == 1
    assert summary["sample_std"] is None and summary["std_error"] is None
    assert summary["empirical_S"] == float(rows[1][5])
    assert abs(summary["empirical_S"]) == pytest.approx(4.0, abs=1e-9)


def test_run_is_reproducible_and_converges(tmp_path):
    cfg = singlet_config(tmp_path, seed=99, shots=400, stream_count=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "shots.csv").read_bytes() == (out_b / "shots.csv").read_bytes()

    with open(out_a / "run_summary.json") as fh:
        summary = json.load(fh)
    assert summary["shots"] == 400
    assert summary["seed"] == 99
    assert summary["stream_count"] == 2
    assert summary["exact_S"] == pytest.approx(-TWO_ROOT_TWO, abs=1e-9)
    # per-shot values are +-4 around a mean of -2sqrt(2); 400 shots puts the
    # empirical mean well within 1.0 of exact
    assert summary["empirical_S"] == pytest.approx(summary["exact_S"], abs=1.0)
    assert summary["verdicts"]["empirical_S"]["status"] == "violated"
    assert len(summary["empirical_quasi_distribution"]) == 16


def test_seed_override_matches_config_seed(tmp_path):
    base = singlet_config(tmp_path, seed=1, shots=50)
    fixed = write_config(
        tmp_path,
        {"state": {"bell": "psi_minus"}, "gammas": ROOT_HALF, "seed": 42, "shots": 50},
        name="fixed.json",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", base, "--out", str(out_a), "--seed", "42"]) == 0
    assert main(["run", "--config", fixed, "--out", str(out_b)]) == 0
    assert (out_a / "shots.csv").read_bytes() == (out_b / "shots.csv").read_bytes()


def test_run_requires_shots(tmp_path, capsys):
    cfg = singlet_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "shots >= 1" in capsys.readouterr().err


# the sampler refuses each of these counts before it keys a stream or opens a file
@pytest.mark.parametrize("stream_count", [1, 2**70])
@pytest.mark.parametrize("shots,argv", [
    pytest.param(2**63, [], id="config-2**63"),
    pytest.param(10**400, [], id="config-10**400"),
    pytest.param(None, ["--shots", str(10**23)], id="flag-10**23"),
])
def test_shot_count_numpy_cannot_hold_exits_2(tmp_path, capsys, shots, argv, stream_count):
    extra = {} if shots is None else {"shots": shots}
    cfg = singlet_config(tmp_path, stream_count=stream_count, **extra)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: shots: shot count ") and "is too many" in line
    assert not (tmp_path / "out" / "shots.csv").exists()


@pytest.mark.parametrize("shots,argv", [
    pytest.param(2**53 + 1, [], id="config"),
    pytest.param(None, ["--shots", str(2**53 + 1)], id="flag"),
])
def test_shot_count_past_two_to_the_53_exits_2(tmp_path, capsys, shots, argv):
    extra = {} if shots is None else {"shots": shots}
    cfg = singlet_config(tmp_path, **extra)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr().err == (
        "config error: shots: shot count 9007199254740993 is too many: a running mean's "
        "divisor is exact only up to 2**53 = 9007199254740992\n")
    assert not (tmp_path / "out" / "shots.csv").exists()


@pytest.mark.parametrize("argv", [[], ["--shots", str(2**53)]], ids=["config", "flag"])
def test_shot_count_two_to_the_53_is_admitted(tmp_path, capsys, monkeypatch, argv):
    # draw only the lazy first chunk, then stop the run as a failed check would
    seen = []

    def first_chunk_only(table, shots, csv):
        seen.append((shots.n, len(shots.reader()(0, sampler.SHOT_CHUNK))))
        raise ConsistencyError("stopped after the first chunk")

    monkeypatch.setattr(sampler, "stream_summary", first_chunk_only)
    cfg = singlet_config(tmp_path, shots=2**53 if not argv else 1, stream_count=3)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 1
    assert seen == [(2**53, sampler.SHOT_CHUNK)]
    assert "stopped after the first chunk" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


def test_run_whose_second_pass_counts_other_shots_exits_1(tmp_path, capsys, monkeypatch):
    reader = sampler.ShotDraws.reader
    passes = []

    def all_zeros_on_the_second_pass(draws):
        passes.append(draws)
        return reader(draws) if len(passes) == 1 else lambda start, stop: np.zeros(stop - start, np.int64)

    monkeypatch.setattr(sampler.ShotDraws, "reader", all_zeros_on_the_second_pass)
    cfg = singlet_config(tmp_path, shots=5000, seed=3)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("internal consistency failure: a second pass")
    assert os.listdir(tmp_path / "out") == []  # the CSV of the first pass is not published


def test_run_whose_shot_mean_misses_the_inverted_frequencies_exits_1(tmp_path, capsys, monkeypatch):
    summary = sampler.stream_summary

    def mean_off_by_1e_6(table, shots, csv):
        counts, report = summary(table, shots, csv)
        return counts, {**report, "mean_S": report["mean_S"] + 1e-6}

    monkeypatch.setattr(sampler, "stream_summary", mean_off_by_1e_6)
    cfg = singlet_config(tmp_path, shots=1000, seed=3)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("internal consistency failure: empirical S paths disagree")
    assert os.listdir(tmp_path / "out") == []


PEAK_RSS = """
import sys
import time
from bellshot.cli import main
main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM in /proc")
def test_run_memory_does_not_grow_with_shots(tmp_path):
    cfg = singlet_config(tmp_path, seed=5)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    peak_kb = {}
    for shots in (10_000, 2_000_000):
        out = tmp_path / f"out{shots}"
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, "run", "--config", cfg, "--out", str(out),
                               "--shots", str(shots)], capture_output=True, text=True, env=env,
                              timeout=300, check=True)
        peak_kb[shots] = int(proc.stdout.split()[-1])
        (out / "shots.csv").unlink()
    # no array of a run grows with the shot count; holding the shots' indices and values
    # whole would add about 44 MB here
    assert peak_kb[2_000_000] - peak_kb[10_000] <= 5 * 1024, peak_kb


@pytest.mark.skipif(not hasattr(signal, "SIGTERM") or os.name != "posix", reason="sends SIGTERM")
def test_sigterm_removes_the_temp_file_and_exits_143(tmp_path):
    # SIGTERM's default action ends a process without unwinding, so _atomic_write's clean-up
    # would never run and an endless run's temp file would be left in --out; the signal lands
    # as soon as the file exists, while numpy.random may still be importing
    cfg = singlet_config(tmp_path, seed=42, stream_count=4)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "bellshot.cli", "run", "--config", cfg, "--out", str(out),
                             "--shots", str(10**9)], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob(".bellshot-*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 128 + signal.SIGTERM
        assert os.listdir(out) == []
    finally:
        proc.kill()
        proc.wait()
        for left in out.glob(".bellshot-*.tmp"):  # a failed run's, which grew until killed
            left.unlink()


def test_sweep_gamma(tmp_path):
    cfg = singlet_config(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma",
         "--grid-values", "0.8", "0.75", "0.7071067811865476"]
    )
    assert rc == 0
    with open(out / "sweep_gamma.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    gammas = [float(r["gamma"]) for r in rows]
    assert gammas == [0.8, 0.75, 0.7071067811865476]
    for r in rows:
        g = float(r["gamma"])
        assert float(r["abs_single_shot_S"]) == pytest.approx(2.0 / g**2, rel=1e-9)
        # equal gammas: CH per-shot values are -1/2 +- 1/(2 gamma^2)
        assert float(r["ch_max"]) == pytest.approx(-0.5 + 0.5 / g**2, abs=1e-9)
        assert float(r["ch_min"]) == pytest.approx(-0.5 - 0.5 / g**2, abs=1e-9)
    # ensemble S survives inversion exactly, so the column is constant
    ensembles = {r["ensemble_S"] for r in rows}
    assert len(ensembles) == 1
    assert float(ensembles.pop()) == pytest.approx(-TWO_ROOT_TWO, abs=1e-9)
    assert [r["realizable"] for r in rows] == ["0", "0", "1"]


def test_sweep_gamma_broken_povm_build_exits_1(tmp_path, capsys, monkeypatch):
    # only a non-positive joint POVM reads as realizable = 0; any other
    # failure of the realizability check is an error, not a table entry
    def broken(pair, gammas):
        raise OutOfRange("broken build")

    monkeypatch.setattr(measurement, "nonpositive_elements", broken)
    out = tmp_path / "out"
    assert main(["sweep", "--config", singlet_config(tmp_path), "--out", str(out),
                 "--axis", "gamma", "--grid-values", "0.7"]) == 1
    assert capsys.readouterr().err == "error: broken build\n"
    assert not (out / "sweep_gamma.csv").exists()


def test_sweep_gamma_columns_are_gamma_free(tmp_path):
    # |x.y| = 0.8: gamma 0.5 is realizable on these settings, gamma 0.6 is not
    blochs = {"x": [0.0, 0.0, 1.0], "y": [0.6, 0.0, 0.8],
              "u": [ROOT_HALF, 0.0, ROOT_HALF], "v": [ROOT_HALF, 0.0, -ROOT_HALF]}
    cfg = singlet_config(tmp_path, gammas=0.5, observables=blochs)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma",
                 "--grid-values", "0.5"]) == 0
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep_gamma.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    with open(out / "exact.json") as fh:
        exact = json.load(fh)
    assert row["realizable"] == "1"
    for column in ("ensemble_S", "min_quasi_entry"):
        assert abs(float(row[column]) - exact[column]) <= 1e-12
    # the Bell operator's Born value from sharp projectors, as in criterion 6
    nx, ny, nu, nv = (np.array(blochs[k]) for k in ("x", "y", "u", "v"))
    born = sum(
        wa * wb * np.trace(SINGLET @ (
            np.kron(projector(nx, wa), projector(nu, wb))
            - np.kron(projector(nx, wa), projector(nv, wb))
            + np.kron(projector(ny, wa), projector(nu, wb))
            + np.kron(projector(ny, wa), projector(nv, wb))
        )).real
        for wa in (1, -1) for wb in (1, -1)
    )
    assert abs(float(row["ensemble_S"]) - born) <= 1e-12


def test_sweep_werner(tmp_path):
    cfg = singlet_config(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["sweep", "--config", cfg, "--out", str(out), "--axis", "werner_eta",
         "--grid-range", "0.6", "0.8", "5"]
    )
    assert rc == 0
    with open(out / "sweep_werner_eta.csv") as fh:
        rows = list(csv.DictReader(fh))
    etas = [float(r["werner_eta"]) for r in rows]
    assert etas == pytest.approx([0.6, 0.65, 0.7, 0.75, 0.8])
    for r in rows:
        eta = float(r["werner_eta"])
        assert float(r["ensemble_S"]) == pytest.approx(-TWO_ROOT_TWO * eta, abs=1e-9)
        assert r["realizable"] == "1"
    # negativity and |S| > 2 switch on in the same grid interval, past 1/sqrt(2)
    min_entries = [float(r["min_quasi_entry"]) for r in rows]
    assert min_entries[2] > 0 > min_entries[3]
    assert abs(float(rows[2]["ensemble_S"])) < 2 < abs(float(rows[3]["ensemble_S"]))


def test_sweep_grid_errors(tmp_path, capsys):
    cfg = singlet_config(tmp_path)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", "gamma",
               "--grid-range", "0.5", "0.8", "1"])
    assert rc == 2
    assert "at least 2 points" in capsys.readouterr().err
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", "gamma",
               "--grid-values", "1.2"])
    assert rc == 2
    assert "outside" in capsys.readouterr().err
    # --grid-range points are reported as plain floats, as --grid-values are
    for axis, message in (("werner_eta", "sweep werner_eta 1.5 outside [0, 1]"),
                          ("gamma", "sweep gamma 0.0 outside [0.2053, 1] in magnitude")):
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", axis,
                   "--grid-range", "0", "1.5", "3"])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class Unlistable(np.ndarray):
    """A grid numpy can hold but whose list of points cannot be allocated."""

    def tolist(self):
        raise MemoryError("cannot allocate the list")


def test_a_grid_too_large_to_list_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "linspace", lambda start, stop, n: np.zeros(3).view(Unlistable))
    out = tmp_path / "out"
    assert main(["sweep", "--config", singlet_config(tmp_path), "--out", str(out), "--axis", "werner_eta",
                 "--grid-range", "0", "1", "30000000"]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep --grid-range POINTS 30000000.0 is too many: cannot allocate the list\n")
    assert os.listdir(out) == []


def test_sweep_along_an_unknown_axis_raises_and_writes_nothing(tmp_path):
    # argparse admits only gamma and werner_eta; a direct call names the axis it refuses
    config = ExperimentConfig.from_dict({"state": {"bell": "psi_minus"}, "gammas": ROOT_HALF})
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ConfigError, match="^unknown sweep axis 'eta'$"):
        cli.cmd_sweep(config, str(out), "eta", [0.5])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("grid,message", [
    (["0", "inf", "3"], "STOP inf is not finite"),
    (["nan", "1", "3"], "START nan is not finite"),
    # finite ends whose difference overflows: linspace would warn and yield NaN
    (["1.7e308", "-1" + "0" * 308 + ".0", "3"], "STOP - START -inf is not finite"),
])
def test_sweep_grid_range_ends_must_be_finite(tmp_path, capsys, grid, message):
    cfg = singlet_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", "werner_eta",
                 "--grid-range", *grid]) == 2
    assert capsys.readouterr().err == f"config error: sweep --grid-range {message}\n"


@pytest.mark.parametrize("value,message", [
    (float("nan"), "= nan is not finite"),
    (float("inf"), "= inf is not finite"),
    (float("-inf"), "= -inf is not finite"),
    (0.0, "= 0.0: |gamma| must lie in [0.00177636, 1]"),
    (1.0000001, "= 1.0000001: |gamma| must lie in [0.00177636, 1]"),
    (-2.0, "= -2.0: |gamma| must lie in [0.00177636, 1]"),
])
def test_one_gamma_rule_for_gamma_set_kernel_and_sweep(tmp_path, capsys, value, message):
    with pytest.raises(GammaOutOfRange) as info:
        GammaSet(0.5, 0.5, 0.5, value)
    assert str(info.value) == "gamma_v " + message
    with pytest.raises(GammaOutOfRange) as info:
        kernel_1d(value)
    assert str(info.value) == "gamma " + message
    cfg = singlet_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", "gamma",
                 f"--grid-values={value!r}"]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep gamma {value!r} outside [0.2053, 1] in magnitude\n")


def test_each_main_call_reads_only_its_own_argv(tmp_path):
    cfg = singlet_config(tmp_path, seed=5, shots=20)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--seed", "42", "--shots", "30"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    summaries = [json.loads((out / "run_summary.json").read_text()) for out in (out_a, out_b)]
    assert [(doc["seed"], doc["shots"]) for doc in summaries] == [(42, 30), (5, 20)]


def per_point_werner_csv(doc: dict, grid: list[float]) -> bytes:
    """The Werner sweep CSV built one state at a time through the
    single-item API: the reference the blocked sweep must match byte for
    byte."""
    config = ExperimentConfig.from_dict(doc)
    kernel = build_kernel(config.gammas)
    povm = joint_povm(config.settings, config.gammas)
    abs_s = float(np.abs(single_shot_chsh_table(kernel)).max())
    ch = single_shot_ch_table(kernel)
    lines = ["werner_eta,ensemble_S,abs_single_shot_S,ch_min,ch_max,min_quasi_entry,realizable"]
    for eta in grid:
        quasi = invert_distribution(kernel, observed_statistics(werner_state(eta), povm))
        cells = (eta, ensemble_chsh(quasi), abs_s, float(ch.min()), float(ch.max()),
                 quasi.min_entry())
        lines.append(",".join("%.17g" % c for c in cells) + ",1")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n", [6, 7, 8, 23])
def test_werner_sweep_blocks_match_per_point_loop(tmp_path, monkeypatch, n):
    # block 7: n = block - 1, block, block + 1, and several blocks plus a tail
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    doc = near_boundary_config()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "werner_eta",
                 "--grid-range", "0", "1", str(n)]) == 0
    expected = per_point_werner_csv(doc, np.linspace(0.0, 1.0, n).tolist())
    assert (out / "sweep_werner_eta.csv").read_bytes() == expected


def per_point_gamma_csv(doc: dict, grid: list[float]) -> bytes:
    """The gamma sweep CSV built one grid point at a time through the
    single-item API, with NotPositive from joint_povm read as realizable 0:
    the reference the blocked sweep must match byte for byte."""
    config = ExperimentConfig.from_dict(doc)
    quasi = gamma_free_quasi(config.state, config.settings)
    lines = ["gamma,ensemble_S,abs_single_shot_S,ch_min,ch_max,min_quasi_entry,realizable"]
    for gamma in grid:
        gammas = GammaSet.equal(gamma)
        kernel = build_kernel(gammas)
        ch = single_shot_ch_table(kernel)
        try:
            joint_povm(config.settings, gammas)
            realizable = 1
        except NotPositive:
            realizable = 0
        cells = (gamma, ensemble_chsh(quasi), float(np.abs(single_shot_chsh_table(kernel)).max()),
                 float(ch.min()), float(ch.max()), quasi.min_entry())
        lines.append(",".join("%.17g" % c for c in cells) + f",{realizable}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n", [6, 7, 8, 23])
def test_gamma_sweep_blocks_match_per_point_loop(tmp_path, monkeypatch, n):
    # block 7: n = block - 1, block, block + 1, and several blocks plus a tail;
    # on these settings equal gammas are realizable up to |gamma| = 0.527
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    doc = near_boundary_config()
    grid = np.concatenate([np.linspace(-1.0, -0.3, n // 2), np.linspace(0.3, 1.0, n - n // 2)])
    values = grid.tolist()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma",
                 "--grid-values", *map(repr, values)]) == 0
    expected = per_point_gamma_csv(doc, values)
    assert (out / "sweep_gamma.csv").read_bytes() == expected
    assert {line[-1:] for line in expected.decode().splitlines()[1:]} == {"0", "1"}


@pytest.mark.parametrize("axis, grid", [
    ("werner_eta", ["0.5", "0", "1e-300", "-0.0", "1e-05", "0.7071067811865476", "1", "5e-324", "0.25"]),
    ("gamma", ["-0.7071067811865476", "0.25", "-1", "0.5", "1", "-0.3", "0.6", "-0.25", "0.3"]),
])
def test_sweep_cells_outside_fixed_notation_match_per_point_loop(tmp_path, monkeypatch, axis, grid):
    # zeros, -0.0, tiny etas and a maximally mixed state's zero S put cells that %.17g writes
    # with an exponent, or as 0, among fixed-notation ones of the same block of 7
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    doc = {**near_boundary_config(), "state": {"werner": 0.0}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis,
                 "--grid-values", *grid]) == 0
    per_point = per_point_werner_csv if axis == "werner_eta" else per_point_gamma_csv
    written = (out / f"sweep_{axis}.csv").read_bytes()
    assert written == per_point(doc, [float(v) for v in grid])
    assert b",0," in written  # the zero S


@pytest.mark.parametrize("bad", ["nan", "1.0000001", "-0.5"])
def test_werner_sweep_error_in_last_block_writes_nothing(tmp_path, capsys, bad):
    grid = [repr(eta) for eta in np.linspace(0.0, 1.0, 3 * SWEEP_BLOCK + 9).tolist()]
    cfg = write_config(tmp_path, near_boundary_config())
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "werner_eta",
                 "--grid-values", *grid, bad]) == 2
    assert capsys.readouterr().err == f"config error: sweep werner_eta {bad} outside [0, 1]\n"
    assert os.listdir(out) == []


def sweep_grid(axis: str, n: int) -> list[float]:
    """n grid points on axis: Werner etas over [0, 1], or gammas on both sides of zero, which
    near_boundary_config realizes up to |gamma| = 0.527."""
    if axis == "werner_eta":
        return np.linspace(0.0, 1.0, n).tolist()
    return np.concatenate([np.linspace(-1.0, -0.3, n // 2), np.linspace(0.3, 1.0, n - n // 2)]).tolist()


@pytest.mark.parametrize("axis", ["werner_eta", "gamma"])
@pytest.mark.parametrize("text_rows, n", [(21, 20), (21, 21), (21, 22), (21, 68), (5, 23)])
def test_sweep_text_batches_match_per_point_loop(tmp_path, monkeypatch, axis, text_rows, n):
    # blocks of 7 laid out 3 to a batch of 21 rows: n = batch - 1, batch, batch + 1 and
    # 3 batches plus 5; a batch under a block still holds one whole block
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    monkeypatch.setattr(cli, "SWEEP_TEXT_ROWS", text_rows)
    doc = near_boundary_config()
    values = sweep_grid(axis, n)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--axis", axis,
                 "--grid-values", *map(repr, values)]) == 0
    per_point = per_point_werner_csv if axis == "werner_eta" else per_point_gamma_csv
    assert (out / f"sweep_{axis}.csv").read_bytes() == per_point(doc, values)


@pytest.mark.parametrize("axis, bad, message", [
    ("werner_eta", "1.5", "sweep werner_eta 1.5 outside [0, 1]"),
    ("gamma", "0.1", "sweep gamma 0.1 outside [0.2053, 1] in magnitude"),
])
def test_sweep_error_in_the_last_text_batch_writes_nothing(tmp_path, monkeypatch, capsys, axis, bad, message):
    # three batches of 21 rows are laid out before the fourth's last point is refused
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    monkeypatch.setattr(cli, "SWEEP_TEXT_ROWS", 21)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, near_boundary_config()), "--out", str(out),
                 "--axis", axis, "--grid-values", *map(repr, sweep_grid(axis, 67)), bad]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert os.listdir(out) == []


def test_validate_command(capsys):
    assert main(["validate", "--seed", "123", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "validation seed: 123" in out
    assert "all passed" in out

    # faults are patched in by tests, not asked for on the command line
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--seed", "123", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


def readme_commands() -> list[str]:
    """Each `bellshot ...` command of the README's sh blocks, continuation lines joined."""
    text = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("bellshot ")]


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert {shlex.split(c, comments=True)[1] for c in commands} == {"exact", "run", "sweep", "validate"}
    for command in commands:
        try:
            cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"{command!r}: {capsys.readouterr().err}")


def test_inject_fault_names_the_worst_outcome(capsys, monkeypatch):
    patch(monkeypatch, "corrupted_kernel")
    assert main(["validate", "--seed", "7", "--trials", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total: 8 checks, FAILURES PRESENT"
    raised = lines.index("  inversion.kernel: 0 checks FAIL")
    assert route(lines[raised + 1].removeprefix("    raised ConsistencyError('").removesuffix("')")) == (
        "single-shot CHSH at outcome 7")
    # the exact analysis fails its one trial, and the check goes on
    failed = lines.index("  belltests.exact_analysis: 1 checks FAIL")
    assert route(lines[failed + 1].removeprefix("    trial 0: ")) == "single-shot CHSH at outcome 7"


def test_gammas_below_the_amplification_floor_exit_2(tmp_path, capsys):
    # equal gammas below 0.2053 amplify rounding past what the kernel's column
    # sums tolerate; 0.05 and 0.06 used to exit 0 with a warning and exit 1
    out = tmp_path / "out"
    for gamma in (0.05, 0.06, 0.2052):
        cfg = write_config(tmp_path, {"state": {"bell": "psi_minus"}, "gammas": gamma})
        assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: gammas: |gamma_x gamma_y gamma_u gamma_v| = ")
    cfg = singlet_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma",
                 "--grid-values", "0.5", "0.06"]) == 2
    assert capsys.readouterr().err == "config error: sweep gamma 0.06 outside [0.2053, 1] in magnitude\n"
    assert os.listdir(out) == []
    # the floor bounds the product: unequal gammas each above 0.2053 can miss it
    doc = {"state": {"bell": "psi_minus"}, "gammas": {"x": 0.21, "y": 0.21, "u": 0.21, "v": 0.19}}
    assert main(["exact", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "= 0.00176" in capsys.readouterr().err


def test_no_temp_files_left_behind(tmp_path):
    cfg = singlet_config(tmp_path, seed=3, shots=10)
    out = tmp_path / "out"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    leftovers = [n for n in os.listdir(out) if n.endswith(".tmp")]
    assert leftovers == []
    assert sorted(os.listdir(out)) == ["exact.json", "run_summary.json", "shots.csv"]


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def write_then_fail(fh):
    fh.write(b"partial")
    raise RuntimeError("failed after writing")


def interrupt_after_writing(fh):
    fh.write(b"partial")
    raise KeyboardInterrupt


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
@pytest.mark.parametrize("writer,error", [
    # run's writer refuses the shots before it writes anything
    (lambda fh: stream_summary(single_shot_chsh_table(build_kernel(GammaSet.equal(0.5))), [16], fh),
     OutOfRange),
    (write_then_fail, RuntimeError),
    (interrupt_after_writing, KeyboardInterrupt),
], ids=["before_open", "after_open", "interrupted"])
def test_atomic_write_leaks_no_descriptor_when_the_writer_fails(tmp_path, writer, error):
    before = open_descriptors()
    with pytest.raises(error):
        _atomic_write(str(tmp_path / "out.csv"), writer)
    assert open_descriptors() == before
    assert os.listdir(tmp_path) == []


def test_a_temp_name_that_exists_is_left_alone(tmp_path, capsys, monkeypatch):
    cfg = singlet_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    taken = out / f".bellshot-{bytes(8).hex()}.tmp"
    taken.write_bytes(b"not ours")
    monkeypatch.setattr(os, "urandom", bytes)  # os.urandom(8) names the temp file
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: --out: cannot write {out / 'exact.json'}: File exists\n")
    assert taken.read_bytes() == b"not ours"
    assert os.listdir(out) == [taken.name]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_outputs_get_the_mode_open_would_give(tmp_path, umask):
    cfg = singlet_config(tmp_path, seed=3, shots=10)
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "werner_eta",
                     "--grid-values", "0.5"]) == 0
    finally:
        os.umask(previous)
    names = sorted(os.listdir(out))
    assert names == ["exact.json", "run_summary.json", "shots.csv", "sweep_werner_eta.csv"]
    for name in names:
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o666 & ~umask


# sha256 of `run` outputs for the README config at 100000 shots, recorded
# before the shot path moved to index arrays; the CSV spans several chunks.
README_RUN_SHOTS = 100_000
README_RUN_SHA256 = {
    "shots.csv": "79a27145c2395e7b41ebd02b8f4a30f9741a101ee7ea2cc8cd616b2e6d64296a",
    "run_summary.json": "7530f95dec284a16524580de40fd47e90b64fc20ef42937a9c1c242816fa5c2d",
}


@pytest.mark.parametrize("shots", [1, 2, 137, 1000, 2177])
def test_streamed_run_equals_the_in_memory_reference(tmp_path, monkeypatch, shots):
    doc = {"state": {"werner": 0.9}, "gammas": {"x": 0.6, "y": 0.7, "u": 0.55, "v": 0.8},
           "shots": shots, "seed": 77, "stream_count": 3}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "one_chunk")]) == 0
    # many pairwise leaves, with edges off the stream blocks' edges
    monkeypatch.setattr(sampler, "SHOT_CHUNK", 136)
    out = tmp_path / "small_chunks"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("shots.csv", "run_summary.json"):
        assert (out / name).read_bytes() == (tmp_path / "one_chunk" / name).read_bytes(), name
    config = ExperimentConfig.from_dict(doc)
    kernel = build_kernel(config.gammas)
    p = observed_statistics(config.state, joint_povm(config.settings, config.gammas))
    idx = searchsorted_indices(p, shots, sampler.RngConfig(77, 3))
    assert (out / "shots.csv").read_bytes() == sequential_shot_csv(kernel, idx.tolist())
    values = single_shot_chsh_table(kernel)[idx]
    std = float(np.std(values, ddof=1)) if shots > 1 else None
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["empirical_S"] == float(np.mean(values))
    assert summary["sample_std"] == std
    assert summary["std_error"] == (std / float(np.sqrt(shots)) if shots > 1 else None)
    quasi = invert_distribution(kernel, np.bincount(idx, minlength=16) / shots)
    assert summary["empirical_quasi_distribution"] == quasi.to_list()


def test_readme_run_outputs_are_pinned(tmp_path):
    assert README_RUN_SHOTS > SHOT_CHUNK
    cfg = write_config(tmp_path, {
        "state": {"bell": "psi_minus"},
        "gammas": 0.7071067811865476,
        "shots": README_RUN_SHOTS,
        "seed": 42,
        "stream_count": 4,
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name, digest in README_RUN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_readme_run_formats_no_running_mean_row_by_row(tmp_path, monkeypatch):
    # a silent fall back to the per-row % formatting would show only as a slower run
    def refuse(means):
        raise AssertionError(f"per-row %.17g fallback reached at {means[:3]}")

    monkeypatch.setattr(sampler, "_percent_17g", refuse)
    cfg = write_config(tmp_path, {"state": {"bell": "psi_minus"}, "gammas": 0.7071067811865476,
                                  "shots": README_RUN_SHOTS, "seed": 42, "stream_count": 4})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_formats_only_out_of_range_running_means_row_by_row(tmp_path, monkeypatch):
    # a maximally mixed state's running mean wanders about 0, down to exact zeros and
    # rounding debris such as 2.2e-16, which %.17g writes with an exponent
    seen = []
    percent = sampler._percent_17g
    monkeypatch.setattr(sampler, "_percent_17g", lambda m: seen.extend(m.tolist()) or percent(m))
    cfg = write_config(tmp_path, {"state": {"werner": 0.0}, "gammas": 0.7071067811865476,
                                  "shots": 3 * SHOT_CHUNK + 5000, "seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "shots.csv", newline="") as fh:
        means = [row[-1] for row in list(csv.reader(fh))[1:]]
    outside = [m for m in means if not 1e-4 <= abs(float(m)) < 1e16]
    assert 0 < len(outside) < SHOT_CHUNK
    assert ["%.17g" % v for v in seen] == outside


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bellshot" in capsys.readouterr().out


# sha256 of outputs whose bytes the kernel algebra must keep, recorded before
# it moved from per-entry loops to array expressions; the two gamma sweeps
# were recorded before the sweep's axis branches became one loop, and their
# `realizable` columns hold both 1 and 0. The 1000-point Werner sweep was
# recorded before the Werner axis ran in blocks; it spans four of them. The two 5000-point
# sweeps were recorded before a sweep's rows were laid out as 4-byte words; each spans three
# text batches of SWEEP_TEXT_ROWS, and the gamma one's `realizable` column holds both 1 and 0.
PINNED_OUTPUTS = {
    "readme_exact": "9df27df8473f207759074d3bca2cad18969bd790ced15c36619b920a684b42aa",
    "near_boundary_exact": "98d6802cd4509c212bbcaa7bdf896ea35aeefc41812fa8a31cf36a76a150ec8a",
    "near_boundary_sweep_werner_eta":
        "e1d1b3014f09d484ece3160245ab17dfecf5aa7f63e9cc9346d76df80d952c42",
    "near_boundary_sweep_werner_eta_1000":
        "5936908590f78fc4ea8765aed8e8c603c8ea51cff95cd7862d8b9f9ec7edbb60",
    "near_boundary_sweep_werner_eta_5000":
        "48a849ab7b5daf32f7a89cb2dc42c99f49359eeeab1b07460e9029ed9dafe619",
    "readme_sweep_gamma": "92f432b4196ad499f49f8fe04178f2dc2891d8ae756bbe400bfde6acea562142",
    "near_boundary_sweep_gamma":
        "f512ec98daccf9c7faa7de696e4490c1402ecee34a515d0e7efa9b1a4add8032",
    "near_boundary_sweep_gamma_5000":
        "468bb9e392d462f848bedf02315584d7189a91c94822a8b59b7fd83a242b0873",
}
# pin name suffix -> (axis, --grid-range)
SWEEP_GRIDS = {
    "werner_eta": ("werner_eta", ["0", "1", "11"]),
    "gamma": ("gamma", ["0.3", "1", "8"]),
    "werner_eta_1000": ("werner_eta", ["0", "1", "1000"]),
    "werner_eta_5000": ("werner_eta", ["0", "1", "5000"]),
    "gamma_5000": ("gamma", ["0.3", "1", "5000"]),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_analysis_outputs_are_pinned(tmp_path, name):
    readme = {"state": {"bell": "psi_minus"}, "gammas": 0.7071067811865476,
              "shots": 100000, "seed": 42, "stream_count": 4}
    doc = readme if name.startswith("readme") else near_boundary_config()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    if name.endswith("exact"):
        argv, output = ["exact"], "exact.json"
    else:
        axis, grid = SWEEP_GRIDS[name.split("_sweep_")[1]]
        argv = ["sweep", "--axis", axis, "--grid-range", *grid]
        output = f"sweep_{axis}.csv"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256((out / output).read_bytes()).hexdigest() == PINNED_OUTPUTS[name]


# sha256 of `validate --seed 7 --trials 4` stdout: every count, message and line holds.
@pytest.mark.parametrize("extra,code,digest", [
    ([], 0, "cb46e1953a1f04f20c17aa9be3d941a97d22a332fd30818bd3b1a7c4e8aefe74"),
])
def test_validate_stdout_is_pinned(capsys, extra, code, digest):
    assert main(["validate", "--seed", "7", "--trials", "4", *extra]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
