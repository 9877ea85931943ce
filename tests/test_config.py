"""Every exit-2 config message, pinned whole: one malformed input per
refusal branch of the config rules, each run through `main` in-process.

A config document goes to `exact`; the flag cases run `run` or `validate`
with one bad value; the file cases write or omit `config.json` itself.
Each case must exit 2 with nothing on stdout and exactly one stderr line,
`config error: <message>`.

Two guards ride along: the exit-code fuzz in test_fuzz_cli.py must draw
every field of `config.FIELDS`, and `python -m bellshot.cli` must exit
with `main`'s code and print `main`'s lines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellshot import config
from bellshot.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
# the config the README's "Command line" section shows
README_CONFIG = {"state": {"bell": "psi_minus"}, "gammas": 0.7071067811865476,
                 "shots": 100000, "seed": 42, "stream_count": 4}

SINGLET = {"bell": "psi_minus"}
ZEROS = [[0.0] * 4 for _ in range(4)]
# Hermitian, unit trace, eigenvalue -0.5
NOT_PSD = [[1.5 if i == j == 0 else -0.5 if i == j == 1 else 0.0 for j in range(4)] for i in range(4)]
SETTINGS = {"x": [0, 0, 1], "y": [1, 0, 0], "u": [0, 1, 0], "v": [0, 0, 1]}
STATE_SHAPE = ('state: expected exactly one of {"bell": name}, {"werner": eta}, '
               '{"custom": {"real": 4x4, "imag": 4x4}}')
GAMMAS_KIND = 'a single real or keys "x", "y", "u", "v"'


def doc(**fields):
    """The singlet at gamma 0.5, with fields replaced; a field set to ... is left out."""
    base = {"state": SINGLET, "gammas": 0.5, **fields}
    return {k: v for k, v in base.items() if v is not ...}


DOCUMENTS = {
    "root_not_object": ([1, 2], "config root must be a JSON object"),
    "unknown_fields": (doc(bogus=1, extra=2), "unknown config fields: ['bogus', 'extra']"),
    "missing_state": (doc(state=...), 'config is missing required field "state"'),
    "missing_gammas": (doc(gammas=...), 'config is missing required field "gammas"'),
    "state_not_object": (doc(state="psi_minus"), STATE_SHAPE),
    "state_two_kinds": (doc(state={"bell": "psi_minus", "werner": 0.5}), STATE_SHAPE),
    "state_unknown_kind": (doc(state={"qutrit": 1}), "state: unknown kind 'qutrit'"),
    "bell_name": (doc(state={"bell": "psiminus"}),
                  "state.bell: unknown name 'psiminus'; "
                  "expected one of phi_plus, phi_minus, psi_plus, psi_minus"),
    "bell_deep_name": (doc(state={"bell": [[[[[[[[[[1]]]]]]]]]]}),
                       "state.bell: unknown name [[[[[[[[[...]]]]]]]]]; "
                       "expected one of phi_plus, phi_minus, psi_plus, psi_minus"),
    "werner_not_real": (doc(state={"werner": "0.5"}),
                        "state.werner: expected a real in [0, 1], got '0.5'"),
    "werner_range": (doc(state={"werner": 1.5}), "state.werner: werner eta = 1.5 outside [0, 1]"),
    "custom_keys": (doc(state={"custom": {"real": ZEROS}}),
                    'state.custom: expected {"real": 4x4 table, "imag": 4x4 table}'),
    "custom_real_shape": (doc(state={"custom": {"real": [[0.0] * 3] * 4, "imag": ZEROS}}),
                          "state.custom.real: expected a 4x4 table of reals, got "
                          "[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]"),
    "custom_imag_bool": (doc(state={"custom": {"real": ZEROS, "imag": True}}),
                         "state.custom.imag: expected a 4x4 table of reals, got True"),
    "custom_not_psd": (doc(state={"custom": {"real": NOT_PSD, "imag": ZEROS}}),
                       "state.custom: density matrix: min eigenvalue = -0.5 below -1e-10"),
    "observables_not_object": (doc(observables=[1, 2]),
                               'observables: expected keys "x", "y", "u", "v" (Bloch 3-vectors)'),
    "observables_keys": (doc(observables={k: SETTINGS[k] for k in "xyu"}),
                         'observables: expected keys "x", "y", "u", "v" (Bloch 3-vectors)'),
    "observables_x_shape": (doc(observables={**SETTINGS, "x": [1, 0]}),
                            "observables.x: expected a 3-vector of reals, got [1, 0]"),
    "observables_not_unit": (doc(observables={**SETTINGS, "x": [2, 0, 0]}),
                             "observables: observable x: |bloch| = 2.0, expected 1"),
    "gammas_scalar": (doc(gammas="0.5"), f"gammas: expected {GAMMAS_KIND}, got '0.5'"),
    "gammas_keys": (doc(gammas={"x": 0.5, "y": 0.5, "u": 0.5}), f"gammas: expected {GAMMAS_KIND}"),
    "gammas_x": (doc(gammas={"x": None, "y": 0.5, "u": 0.5, "v": 0.5}),
                 "gammas.x: expected a real, got None"),
    "gammas_above_one": (doc(gammas=1.5), "gammas: gamma_x = 1.5: |gamma| must lie in [0.00177636, 1]"),
    "gammas_v_above_one": (doc(gammas={"x": 0.5, "y": 0.5, "u": 0.5, "v": -1.5}),
                           "gammas: gamma_v = -1.5: |gamma| must lie in [0.00177636, 1]"),
    "gammas_below_floor": (doc(gammas=0.06),
                           "gammas: |gamma_x gamma_y gamma_u gamma_v| = 1.296e-05 must be at "
                           "least 0.001776 (|gamma| >= 0.2053 at equal gammas)"),
    "shots_negative": (doc(shots=-3), "shots: expected a nonnegative integer, got -3"),
    "shots_bool": (doc(shots=True), "shots: expected a nonnegative integer, got True"),
    "shots_null": (doc(shots=None), "shots: expected a nonnegative integer, got None"),
    "seed_negative": (doc(seed=-1), "seed: expected an unsigned 64-bit integer, got -1"),
    "seed_2_64": (doc(seed=2**64),
                  "seed: expected an unsigned 64-bit integer, got 18446744073709551616"),
    "seed_float": (doc(seed=1.0), "seed: expected an unsigned 64-bit integer, got 1.0"),
    "stream_count_zero": (doc(stream_count=0), "stream_count: expected a positive integer, got 0"),
}

FLAGS = {
    "run_seed_negative": (["run", "--seed", "-1"],
                          "seed: expected an unsigned 64-bit integer, got -1"),
    "run_seed_2_64": (["run", "--seed", str(2**64)],
                      "seed: expected an unsigned 64-bit integer, got 18446744073709551616"),
    "run_shots_negative": (["run", "--shots", "-1"], "shots: expected a nonnegative integer, got -1"),
    "run_shots_zero": (["run", "--shots", "0"],
                       "run requires shots >= 1 (set shots in config or pass --shots)"),
    "validate_seed_negative": (["validate", "--seed", "-1"],
                               "seed: expected an unsigned 64-bit integer, got -1"),
    "validate_seed_2_64": (["validate", "--seed", str(2**64)],
                           "seed: expected an unsigned 64-bit integer, got 18446744073709551616"),
    "validate_trials_zero": (["validate", "--trials", "0"], "trials: expected a positive integer, got 0"),
    "validate_trials_negative": (["validate", "--trials", "-2"],
                                 "trials: expected a positive integer, got -2"),
}

# None: no file at the path; ...: a directory there
FILES = {
    "missing": (None, "config file not found: {path}"),
    "directory": (..., "config file cannot be read: {path}: Is a directory"),
    "not_utf8": (b"\xff\xfe{}", "config file is not UTF-8 text: {path}: "
                                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "too_deep": (b"[" * 100000, "config file nests too deeply to decode: {path}"),
    "not_json": (b'{"state": ', "config is not valid JSON: Expecting value: line 1 column 11 (char 10)"),
}


def refusal(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", list(DOCUMENTS))
def test_each_config_refusal_prints_its_whole_message(tmp_path, capsys, case):
    document, message = DOCUMENTS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    argv = ["exact", "--config", str(path), "--out", str(tmp_path)]
    assert refusal(capsys, argv) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("case", list(FLAGS))
def test_each_flag_refusal_prints_its_whole_message(tmp_path, capsys, case):
    argv, message = FLAGS[case]
    if argv[0] == "run":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc(shots=10)))
        argv = [*argv, "--config", str(path), "--out", str(tmp_path)]
    assert refusal(capsys, argv) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("case", list(FILES))
def test_each_unreadable_file_prints_its_whole_message(tmp_path, capsys, case):
    content, message = FILES[case]
    path = tmp_path / "config.json"
    if content is ...:
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    argv = ["exact", "--config", str(path), "--out", str(tmp_path / "out")]
    assert refusal(capsys, argv) == (2, "", f"config error: {message.format(path=path)}\n")


def test_the_exit_code_fuzz_draws_every_config_field():
    from test_fuzz_cli import FIELDS as FUZZED  # its own strategies, not built from config.FIELDS

    assert set(FUZZED) - {"extra"} == set(config.FIELDS)


@pytest.mark.parametrize("gammas,code,stdout,stderr", [
    (README_CONFIG["gammas"], 0, "wrote {out}/exact.json\n", ""),
    (1.5, 2, "", "config error: gammas: gamma_x = 1.5: |gamma| must lie in [0.00177636, 1]\n"),
], ids=["readme", "gammas_1.5"])
def test_module_entry_point_exits_with_mains_code(tmp_path, gammas, code, stdout, stderr):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**README_CONFIG, "gammas": gammas}))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "bellshot.cli", "exact", "--config", str(path),
                           "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout.format(out=out), stderr)
