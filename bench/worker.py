"""Child process that calls `bellshot.cli.main(argv)` in-process.

Usage: python bench/worker.py SPEC_JSON RESULT_JSON

The spec names the workload, the bellshot source directory, the operations
(argv plus check data, as built by `workloads.make_ops`) and a mode:

- ``timed``: cycle through the operations until ``seconds`` have passed,
  timing each `main` call; output checks run after the clock stops.
- ``trace``: one warm-up call, one pass over the operations without
  wrappers, then a pass with `tracer.Tracer` installed; reports per-layer
  metrics per operation and the tracing overhead between the two passes,
  and writes the raw spans and counts to ``spans_path``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import workloads
from runmodule import peak_rss_mb
from tracer import Tracer


def _call(main, op: dict, check) -> tuple[float, str | None]:
    """Time one main(argv) call, then check its outputs untimed."""
    start = perf_counter()
    try:
        code = main(op["argv"])
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:  # a raise is a failed operation, not a crash
        return perf_counter() - start, f"raised {exc!r}"
    seconds = perf_counter() - start
    return seconds, f"exit {code}" if code != 0 else workloads.run_check(check, op)


def _output_bytes(out_dir: str) -> tuple[int, int]:
    """(all output bytes, shots.csv bytes) currently in out_dir."""
    total = csv = 0
    if not os.path.isdir(out_dir):  # the operation failed before writing
        return total, csv
    for entry in os.scandir(out_dir):
        if entry.is_file() and not entry.name.startswith("."):
            total += entry.stat().st_size
            if entry.name == "shots.csv":
                csv = entry.stat().st_size
    return total, csv


def timed(main, ops, check, seconds):
    latencies, errors = [], []
    start = perf_counter()
    while not latencies or perf_counter() - start < seconds:
        op_seconds, error = _call(main, ops[len(latencies) % len(ops)], check)
        latencies.append(op_seconds)
        if error:
            errors.append(error)
    return {"latencies_s": latencies, "errors": errors, "peak_rss_mb": peak_rss_mb()}


def traced(main, ops, check, spans_path):
    # The first call in a process pays lazy set-up; keep it out of both passes.
    _, error = _call(main, ops[0], check)
    errors = [error] if error else []
    untraced_s = 0.0
    for op in ops:
        op_seconds, error = _call(main, op, check)
        untraced_s += op_seconds
        errors += [error] if error else []

    tracer = Tracer()
    tracer.install()
    traced_s = 0.0
    output_bytes = csv_bytes = 0
    for op in ops:
        op_seconds, error = _call(main, op, check)
        tracer.end_op()
        traced_s += op_seconds
        errors += [error] if error else []
        total, csv = _output_bytes(op["out"])
        output_bytes += total
        csv_bytes += csv
    shots = sum(op.get("shots", 0) for op in ops)
    metrics = tracer.metrics(len(ops), traced_s, untraced_s, shots, csv_bytes, output_bytes)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return {"attempted": 1 + 2 * len(ops), "errors": errors, "metrics": metrics}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from bellshot.cli import main as bellshot_main

    check = workloads.make_check(spec["workload"])
    if spec["mode"] == "timed":
        result = timed(bellshot_main, spec["ops"], check, spec["seconds"])
    else:
        result = traced(bellshot_main, spec["ops"], check, spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
