"""The three benchmark workloads: seeded inputs and independent output checks.

Each workload turns the benchmark seed into bellshot inputs (config files
plus the argv of one operation) and checks bellshot's outputs against
references computed here with plain numpy, never through bellshot's own
routines. bellshot itself is not imported by this module.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

ROOT_HALF = 1.0 / math.sqrt(2.0)
README_GAMMA = 0.7071067811865476  # the literal in the README config
TSIRELSON = 2.0 * math.sqrt(2.0)

RUN_SHOTS = 1_000_000
SWEEP_POINTS = 10_000
# Distinct configs cycled through by the exact_random loop. Large enough that
# no config repeats within a typical second; small enough to write in ~0.1 s.
EXACT_POOL = 256

# sha256 of the run_1e6 outputs for bellshot seed 42 (the README config's
# seed), 1e6 shots and stream_count 4, pinned on the commit that added the
# benchmark. Any change to the shot path must reproduce them byte for byte.
PINNED_SEED = 42
PINNED_RUN_SHA256 = {
    "shots.csv": "477b447a3c622f0588efcd38fdd5ebb6f393550eec5d3c632949e8ace52ed9ae",
    "run_summary.json": "1428ae54b3c075c1dc776e0458abe5bbb838b63e261025e4c18de9028eb6d574",
}

OPTIMAL_BLOCHS = {
    "x": (0.0, 0.0, 1.0),
    "y": (1.0, 0.0, 0.0),
    "u": (ROOT_HALF, 0.0, ROOT_HALF),
    "v": (ROOT_HALF, 0.0, -ROOT_HALF),
}

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

NAMES = ("run_1e6", "exact_random", "sweep_eta")


def bellshot_seed(seed: int) -> int:
    """Map any benchmark seed onto bellshot's unsigned 64-bit seed range."""
    return seed % 2**64


def readme_config(seed: int, observables: dict | None = None) -> dict:
    doc = {
        "state": {"bell": "psi_minus"},
        "gammas": README_GAMMA,
        "shots": 100000,
        "seed": bellshot_seed(seed),
        "stream_count": 4,
    }
    if observables is not None:
        doc["observables"] = observables
    return doc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation of R^3 (QR with sign fix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def draw_exact_config(rng: np.random.Generator) -> dict:
    """A random full-rank state with random settings and admissible gammas.

    Gammas are drawn in [0.3, 0.95]. A same-qubit pair whose worst-case
    Bloch norm sqrt(g1^2 + g2^2 + 2 g1 g2 |n1.n2|) exceeds 1 is scaled back
    to 1 - 1e-9, so those draws sit within 1e-9 of the positivity boundary.
    """
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    rho = 0.5 * (m + m.conj().T) / np.trace(m).real
    blochs = [_unit(rng) for _ in range(4)]
    gs = [float(x) for x in rng.uniform(0.3, 0.95, size=4)]
    for i, j in ((0, 1), (2, 3)):
        c = abs(float(blochs[i] @ blochs[j]))
        worst = math.sqrt(gs[i] ** 2 + gs[j] ** 2 + 2.0 * gs[i] * gs[j] * c)
        if worst > 1.0:
            scale = (1.0 - 1e-9) / worst
            gs[i] *= scale
            gs[j] *= scale
    labels = ("x", "y", "u", "v")
    return {
        "state": {"custom": {"real": rho.real.tolist(), "imag": rho.imag.tolist()}},
        "observables": {k: b.tolist() for k, b in zip(labels, blochs)},
        "gammas": dict(zip(labels, gs)),
    }


def make_ops(workload: str, seed: int, work_dir: str) -> list[dict]:
    """Write the workload's config files; return one spec per operation.

    A spec holds the bellshot argv (without the program name), the output
    directory, and what its check needs. The same seed writes the same files.
    """
    in_dir = os.path.join(work_dir, "inputs")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng(seed % 2**64)
    if workload == "run_1e6":
        path = os.path.join(in_dir, "run.json")
        _write_json(path, readme_config(seed))
        argv = ["run", "--config", path, "--out", out_dir,
                "--shots", str(RUN_SHOTS), "--seed", str(bellshot_seed(seed))]
        return [{"argv": argv, "out": out_dir, "seed": bellshot_seed(seed), "shots": RUN_SHOTS}]
    if workload == "sweep_eta":
        # A common rotation of all four directions leaves the singlet's
        # correlations, and so S = -2 sqrt(2) eta, unchanged.
        rot = _rotation(rng)
        observables = {k: (rot @ np.array(b)).tolist() for k, b in OPTIMAL_BLOCHS.items()}
        path = os.path.join(in_dir, "sweep.json")
        _write_json(path, readme_config(seed, observables))
        argv = ["sweep", "--config", path, "--out", out_dir, "--axis", "werner_eta",
                "--grid-range", "0", "1", str(SWEEP_POINTS)]
        return [{"argv": argv, "out": out_dir, "points": SWEEP_POINTS}]
    if workload == "exact_random":
        ops = []
        for i in range(EXACT_POOL):
            path = os.path.join(in_dir, f"exact_{i:04d}.json")
            _write_json(path, draw_exact_config(rng))
            ops.append({"argv": ["exact", "--config", path, "--out", out_dir],
                        "out": out_dir, "config": path})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def items_per_op(workload: str) -> int:
    """Shots, configs or grid points completed by one operation."""
    return {"run_1e6": RUN_SHOTS, "exact_random": 1, "sweep_eta": SWEEP_POINTS}[workload]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _bloch_operator(n) -> np.ndarray:
    return sum(float(c) * p for c, p in zip(n, PAULI))


def born_chsh(doc: dict) -> float:
    """tr[rho (X(x)U - X(x)V + Y(x)U + Y(x)V)] for a custom-state config."""
    rho = np.array(doc["state"]["custom"]["real"]) + 1j * np.array(doc["state"]["custom"]["imag"])
    x, y, u, v = (_bloch_operator(doc["observables"][k]) for k in ("x", "y", "u", "v"))
    bell = np.kron(x, u) - np.kron(x, v) + np.kron(y, u) + np.kron(y, v)
    return float(np.trace(rho @ bell).real)


class RunCheck:
    """run_1e6: exact and empirical S, row count, and byte-identical outputs."""

    def __init__(self):
        self.digests = None

    def __call__(self, op: dict) -> str | None:
        with open(os.path.join(op["out"], "run_summary.json")) as fh:
            summary = json.load(fh)
        if abs(summary["exact_S"] + TSIRELSON) > 1e-10:
            return f"exact_S {summary['exact_S']!r} != -2 sqrt(2)"
        if abs(summary["empirical_S"] - summary["exact_S"]) > 5.0 * summary["std_error"]:
            return f"empirical_S {summary['empirical_S']!r} more than 5 std errors from exact"
        csv_path = os.path.join(op["out"], "shots.csv")
        with open(csv_path, "rb") as fh:
            lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
        if lines != op["shots"] + 1:
            return f"shots.csv has {lines} lines, expected {op['shots'] + 1}"
        digests = {name: _sha256(os.path.join(op["out"], name)) for name in PINNED_RUN_SHA256}
        if self.digests is None:
            self.digests = digests
        if digests != self.digests:
            return "outputs differ from an earlier repetition with the same seed"
        if op["seed"] == PINNED_SEED and op["shots"] == RUN_SHOTS and digests != PINNED_RUN_SHA256:
            return "outputs differ from the pinned sha256 for seed 42"
        return None


class ExactCheck:
    """exact_random: ensemble S against the Born rule, quasi-distribution sum."""

    def __init__(self):
        self.references = {}

    def __call__(self, op: dict) -> str | None:
        path = op["config"]
        if path not in self.references:
            with open(path) as fh:
                self.references[path] = born_chsh(json.load(fh))
        with open(os.path.join(op["out"], "exact.json")) as fh:
            result = json.load(fh)
        if abs(result["ensemble_S"] - self.references[path]) > 1e-9:
            return f"{path}: ensemble_S {result['ensemble_S']!r} != Born {self.references[path]!r}"
        total = math.fsum(result["quasi_distribution"])
        if abs(total - 1.0) > 1e-10:
            return f"{path}: quasi_distribution sums to {total!r}"
        return None


def check_sweep(op: dict) -> str | None:
    """sweep_eta: N + 1 rows, S = -2 sqrt(2) eta, every point realizable."""
    with open(os.path.join(op["out"], "sweep_werner_eta.csv")) as fh:
        lines = fh.read().splitlines()
    if len(lines) != op["points"] + 1:
        return f"sweep csv has {len(lines)} lines, expected {op['points'] + 1}"
    header = lines[0].split(",")
    i_eta, i_s, i_real = (header.index(k) for k in ("werner_eta", "ensemble_S", "realizable"))
    for line in lines[1:]:
        cells = line.split(",")
        eta, s = float(cells[i_eta]), float(cells[i_s])
        if abs(s + TSIRELSON * eta) > 1e-9:
            return f"eta {eta!r}: ensemble_S {s!r} != -2 sqrt(2) eta"
        if cells[i_real] != "1":
            return f"eta {eta!r}: realizable is {cells[i_real]!r}"
    return None


def run_check(check, op: dict) -> str | None:
    """Apply a check; missing or malformed outputs are a failure, not a crash."""
    try:
        return check(op)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"outputs unreadable: {exc!r}"


def make_check(workload: str):
    """A callable op -> error message or None; it may keep state across ops."""
    return {"run_1e6": RunCheck, "exact_random": ExactCheck, "sweep_eta": lambda: check_sweep}[
        workload
    ]()
