"""bellshot benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload exact_random --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (see bench/README.md for why each was chosen):

- ``run_1e6``: ``bellshot run`` at 1e6 shots on the README config, one
  subprocess per operation;
- ``exact_random``: in-process ``bellshot.cli.main(["exact", ...])`` over a
  pool of seeded random admissible configs, in one worker process;
- ``sweep_eta``: ``bellshot sweep --axis werner_eta`` over 10000 grid points,
  one subprocess per operation.

Each is a closed loop with one client: the next operation starts when the
previous one has returned, until ``--seconds`` have passed. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
whose length is set by its inputs rather than by ``--seconds``.
Every operation's outputs are checked; the exit code is 1 if any failed.
"""

from __future__ import annotations

import os

# Child processes, and numpy in this one, run single-threaded BLAS/OpenMP.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 7
OP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# What one item is on each workload, so items_per_s can also be printed
# under its workload-specific name.
ITEM_METRIC = {"run_1e6": "shots_per_s", "exact_random": "configs_per_s",
               "sweep_eta": "points_per_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Children write bytecode, as an installed package has it; otherwise
    # every import would compile bellshot from source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd: list[str], log_path: str, timeout: float = OP_TIMEOUT_S):
    """Run cmd to completion; return (wall seconds, exit code).

    A child still running after `timeout` seconds is killed, which makes
    its exit code nonzero.
    """
    with open(log_path, "w") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return perf_counter() - start, code


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
        "pinned_env": PINNED_ENV,
    }


def setup(workload: str, seed: int, work: str):
    """Median over SETUP_REPS of: a fresh interpreter importing bellshot,
    plus generating and writing the workload's inputs."""
    log = os.path.join(work, "import.log")
    import_bellshot = [sys.executable, "-c", "import bellshot"]
    spawn(import_bellshot, log)  # writes bytecode once
    times = []
    for _ in range(SETUP_REPS):
        seconds, code = spawn(import_bellshot, log)
        if code != 0:
            raise SystemExit(f"import bellshot failed with exit {code}; see {log}")
        start = perf_counter()
        ops = workloads.make_ops(workload, seed, work)
        times.append(seconds + perf_counter() - start)
    return statistics.median(times), ops


def run_subprocesses(workload: str, ops: list[dict], seconds: float, work: str):
    """Closed loop of `python -m bellshot.cli ...` subprocesses, each run
    through runmodule.py so that it reports its own peak RSS."""
    check = workloads.make_check(workload)
    log = os.path.join(work, "op.log")
    rss_path = os.path.join(work, "op_rss.txt")
    latencies, errors, peak_mb = [], [], 0.0
    start = perf_counter()
    while not latencies or perf_counter() - start < seconds:
        op = ops[len(latencies) % len(ops)]
        shutil.rmtree(op["out"], ignore_errors=True)
        if os.path.exists(rss_path):
            os.remove(rss_path)
        op_seconds, code = spawn([sys.executable, os.path.join(BENCH_DIR, "runmodule.py"),
                                  rss_path, "bellshot.cli", *op["argv"]], log)
        latencies.append(op_seconds)
        if os.path.exists(rss_path):
            with open(rss_path) as fh:
                peak_mb = max(peak_mb, float(fh.read()))
        error = f"exit {code}" if code != 0 else workloads.run_check(check, op)
        if error:
            errors.append(error)
    return latencies, errors, peak_mb


def run_worker(mode: str, workload: str, ops: list[dict], seconds: float, work: str) -> dict:
    """Run bench/worker.py in its own process and return its result."""
    spec_path = os.path.join(work, f"{mode}_spec.json")
    result_path = os.path.join(work, f"{mode}_result.json")
    spec = {"mode": mode, "workload": workload, "src": SRC, "ops": ops, "seconds": seconds,
            "spans_path": os.path.join(work, "spans.json")}
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    log = os.path.join(work, f"{mode}_worker.log")
    _, code = spawn([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                     spec_path, result_path], log)
    if code != 0:
        raise SystemExit(f"benchmark worker failed with exit {code}; see {log}")
    with open(result_path) as fh:
        return json.load(fh)


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile: the slowest value when there are < 100."""
    ordered = sorted(values)
    return ordered[-(-len(ordered) * 99 // 100) - 1]


def timed(workload: str, seed: int, seconds: float, work: str) -> dict:
    setup_s, ops = setup(workload, seed, work)
    if workload == "exact_random":
        result = run_worker("timed", workload, ops, seconds, work)
        latencies, errors, peak_mb = result["latencies_s"], result["errors"], result["peak_rss_mb"]
    else:
        latencies, errors, peak_mb = run_subprocesses(workload, ops, seconds, work)
    shutil.rmtree(ops[0]["out"], ignore_errors=True)
    # On a shared host, other tenants slow every operation by up to ~1.8x for
    # seconds to minutes at a time. Throughput is therefore the mean, which
    # moves smoothly with the mix of slow and fast phases. The latency
    # figures move more from run to run; they are reported, not gated.
    metrics = {
        "setup_s": setup_s,
        "items_per_s": workloads.items_per_op(workload) * len(latencies) / sum(latencies),
        "peak_rss_mb": peak_mb,
    }
    info = {
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p99": 1000.0 * p99(latencies),
        "op_ms_min": 1000.0 * min(latencies),
    }
    return {"attempted": len(latencies), "errors": errors,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "info": {k: {"value": v, "unit": "ms"} for k, v in info.items()}}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def traced(workload: str, seed: int, work: str) -> dict:
    _, ops = setup(workload, seed, work)
    result = run_worker("trace", workload, ops, 0.0, work)
    shutil.rmtree(ops[0]["out"], ignore_errors=True)
    return {"attempted": result["attempted"], "errors": result["errors"],
            "metrics": {k: {"value": v, "unit": layer_unit(k)}
                        for k, v in result["metrics"].items()}}


def report(workload: str, outcome: dict) -> None:
    attempted, failed = outcome["attempted"], len(outcome["errors"])
    for name, metric in {**outcome["metrics"], **outcome.get("info", {})}.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
        if name == "items_per_s":
            print(f"  {ITEM_METRIC[workload]:<40} {metric['value']:.6g} 1/s")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for error in outcome["errors"][:5]:
        print(f"  failed: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "bellshot", "__init__.py")):
        print(f"bellshot sources not found under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        work = os.path.join(WORK, name)
        os.makedirs(work, exist_ok=True)
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print(f"  env {json.dumps(env)}")
        if args.trace:
            outcome = traced(name, args.seed, work)
        else:
            outcome = timed(name, args.seed, args.seconds, work)
        report(name, outcome)
        failed = len(outcome["errors"])
        result = {"correct": failed == 0, "attempted": outcome["attempted"], "failed": failed,
                  "metrics": outcome["metrics"]}
        with open(os.path.join(WORK, "runs.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "env": env, "result": result,
                                 "info": outcome.get("info", {}),
                                 "errors": outcome["errors"][:20]}) + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
