"""Summarize benchmark runs: median and quartiles per workload and metric.

Usage (from the repository root):

    python3 bench/summarize.py [.bench_work/runs.jsonl] > summary.json

bench/run.py appends one record per workload run to .bench_work/runs.jsonl.
Move that file aside before a new set of runs, so that one summary covers
one commit. The output groups end-to-end runs (--trace 0) and traced runs
(--trace 1) per workload. For each metric, and each informational figure
such as op_ms_p50, it gives the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` computes them, and the spread
(q3 - q1) / median. It also lists the seeds and the environment of the
first run.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(records: list[dict]) -> dict:
    groups = {}
    for record in records:
        kind = "traced" if record["trace"] else "end_to_end"
        groups.setdefault(record["workload"], {}).setdefault(kind, []).append(record)
    summary = {"environment": records[0]["env"] if records else None, "workloads": {}}
    for workload, kinds in groups.items():
        summary["workloads"][workload] = {}
        for kind, runs in kinds.items():
            metrics = {}
            for name, first in {**runs[0]["result"]["metrics"], **runs[0].get("info", {})}.items():
                values = [{**run["result"]["metrics"], **run.get("info", {})}[name]["value"]
                          for run in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                metrics[name] = {
                    "unit": first["unit"],
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0,
                }
            summary["workloads"][workload][kind] = {
                "runs": len(runs),
                "seeds": [run["seed"] for run in runs],
                "seconds": runs[0]["seconds"],
                "failed": sum(run["result"]["failed"] for run in runs),
                "attempted": sum(run["result"]["attempted"] for run in runs),
                "metrics": metrics,
            }
    return summary


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else ".bench_work/runs.jsonl"
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    json.dump(summarize(records), sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
