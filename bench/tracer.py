"""Timing wrappers around bellshot's public functions, for traced runs only.

`Tracer.install` rebinds each listed function at every bellshot module
attribute that holds it (``shot_records`` is bound in both ``bellshot.cli``
and ``bellshot.sampler``, for instance), so internal calls are seen too.
Stage-level functions record one span per call: key, start, end and the
index of the enclosing span. Functions called hundreds of times per
operation only add to a call count and a summed time. Per-shot methods
such as ``OutcomeIndex.to_index`` are not wrapped; shot-level figures are
derived from the shot count. Everything stays in memory until `metrics`.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# module -> {function: span key}. Keys name the metric a span feeds;
# single_shot_ch_table feeds none, but its span keeps the sweep's table
# build out of the command's self time.
SPANNED = {
    "states": {"bell_state": "states.construct", "werner_state": "states.construct",
               "custom_state": "states.construct"},
    "observables": {"observable_set": "observables.observable_set",
                    "chsh_optimal_angles": "observables.observable_set"},
    "measurement": {"joint_povm": "measurement.joint_povm",
                    "observed_statistics": "measurement.observed_statistics"},
    "inversion": {"build_kernel": "inversion.build_kernel",
                  "invert_distribution": "inversion.invert_distribution"},
    "belltests": {"chsh_report": "belltests.chsh_report", "ch_report": "belltests.ch_report",
                  "single_shot_chsh_table": "belltests.single_shot_chsh_table",
                  "single_shot_ch_table": "belltests.single_shot_ch_table",
                  "classical_bounds_check": "belltests.classical_bounds_check"},
    "sampler": {"sample_shots": "sampler.sample_shots", "shot_records": "sampler.shot_records",
                "convergence_report": "sampler.convergence_report",
                "empirical_frequencies": "sampler.empirical_frequencies",
                "write_shot_csv": "sampler.write_shot_csv"},
    "cli": {"load_config": "cli.load_config", "cmd_exact": "cli.cmd",
            "cmd_run": "cli.cmd", "cmd_sweep": "cli.cmd",
            "atomic_write_json": "cli.atomic_write_json"},
}
# Hot functions: call count and summed time only, no spans.
COUNTED = {
    "inversion": ("kernel_1d",),
    "belltests": ("single_shot_ch",),
    "linalg": ("min_eigenvalue_hermitian", "trace_product"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(lambda: [0, 0.0])  # key -> [calls, seconds]
        self._ch_pairs = set()  # distinct (gammas, xi, xi') in the current op
        self.distinct_ch_pairs = 0
        self.shot_records_built = 0

    def end_op(self) -> None:
        """Close one operation: distinct CH pairs are counted per operation."""
        self.distinct_ch_pairs += len(self._ch_pairs)
        self._ch_pairs.clear()

    def install(self) -> None:
        replacements = {}
        for module_name, functions in SPANNED.items():
            module = sys.modules[f"bellshot.{module_name}"]
            for name, key in functions.items():
                fn = getattr(module, name)
                replacements[id(fn)] = self._spanned(key, fn)
        for module_name, names in COUNTED.items():
            module = sys.modules[f"bellshot.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = self._counted(f"{module_name}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "bellshot" and not module_name.startswith("bellshot."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def _spanned(self, key, fn):
        spans, stack = self.spans, self._stack
        count_records = key == "sampler.shot_records"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if count_records:
                self.shot_records_built += len(args[1])
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts
        if key == "linalg.min_eigenvalue_hermitian":
            def key_of(args):
                return "linalg.eig4" if args[0].shape[0] == 4 else "linalg.eig2"
        elif key == "belltests.single_shot_ch":
            pairs = self._ch_pairs

            def key_of(args):
                pairs.add((args[0].gammas, args[1], args[2]))
                return key
        else:
            def key_of(args):
                return key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = counts[key_of(args)]
                entry[0] += 1
                entry[1] += perf_counter() - start

        return wrapper

    def _span_totals(self):
        """Per key: calls and inclusive seconds of outermost spans (a span
        nested inside another of the same key is not counted again), and
        self seconds of every span of that key."""
        spans = self.spans
        child_seconds = defaultdict(float)
        for key, start, end, parent in spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_seconds = defaultdict(float)
        top_level = 0.0
        for i, (key, start, end, parent) in enumerate(spans):
            seconds = end - start
            self_seconds[key] += seconds - child_seconds[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != key:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                calls[key] += 1
                inclusive[key] += seconds
            # The command span wraps nearly everything; "top level" means the
            # outermost stage spans: roots other than it, and its children.
            if key != "cli.cmd" and (parent < 0 or spans[parent][0] == "cli.cmd"):
                top_level += seconds
        return calls, inclusive, self_seconds, top_level

    def metrics(self, ops: int, traced_s: float, untraced_s: float, shots: int,
                csv_bytes: int, output_bytes: int) -> dict:
        """Per-layer metrics, per operation (one `bellshot.cli.main` call)."""
        calls, inclusive, self_seconds, top_level = self._span_totals()
        counts = self.counts
        ch_calls = counts["belltests.single_shot_ch"][0]

        def per_op(value):
            return value / ops

        return {
            "sampler.sample_shots_s": per_op(inclusive["sampler.sample_shots"]),
            "sampler.shot_records_s": per_op(inclusive["sampler.shot_records"]),
            "sampler.shot_records_calls": per_op(calls["sampler.shot_records"]),
            "sampler.records_per_shot": self.shot_records_built / shots if shots else 0.0,
            "sampler.convergence_report_s": per_op(self_seconds["sampler.convergence_report"]),
            "sampler.empirical_frequencies_s": per_op(inclusive["sampler.empirical_frequencies"]),
            "sampler.write_shot_csv_s": per_op(inclusive["sampler.write_shot_csv"]),
            "sampler.csv_bytes": per_op(csv_bytes),
            "belltests.ch_report_s": per_op(inclusive["belltests.ch_report"]),
            "belltests.chsh_report_s": per_op(inclusive["belltests.chsh_report"]),
            "belltests.single_shot_ch_calls": per_op(ch_calls),
            "belltests.ch_useful_ratio": self.distinct_ch_pairs / ch_calls if ch_calls else 0.0,
            "belltests.single_shot_chsh_table_calls":
                per_op(calls["belltests.single_shot_chsh_table"]),
            "belltests.classical_bounds_check_s":
                per_op(inclusive["belltests.classical_bounds_check"]),
            "inversion.build_kernel_s": per_op(inclusive["inversion.build_kernel"]),
            "inversion.invert_distribution_calls": per_op(calls["inversion.invert_distribution"]),
            "inversion.invert_distribution_s": per_op(inclusive["inversion.invert_distribution"]),
            "inversion.kernel_1d_calls": per_op(counts["inversion.kernel_1d"][0]),
            "measurement.joint_povm_s": per_op(inclusive["measurement.joint_povm"]),
            "measurement.observed_statistics_s":
                per_op(inclusive["measurement.observed_statistics"]),
            "measurement.observed_statistics_calls":
                per_op(calls["measurement.observed_statistics"]),
            "states.construct_s": per_op(inclusive["states.construct"]),
            "states.construct_calls": per_op(calls["states.construct"]),
            "linalg.eig4_calls": per_op(counts["linalg.eig4"][0]),
            "linalg.eig4_s": per_op(counts["linalg.eig4"][1]),
            "linalg.eig2_calls": per_op(counts["linalg.eig2"][0]),
            "linalg.eig2_s": per_op(counts["linalg.eig2"][1]),
            "linalg.trace_product_calls": per_op(counts["linalg.trace_product"][0]),
            "observables.observable_set_s": per_op(inclusive["observables.observable_set"]),
            "cli.load_config_s": per_op(inclusive["cli.load_config"]),
            "cli.cmd_self_s": per_op(self_seconds["cli.cmd"]),
            "cli.atomic_write_json_s": per_op(inclusive["cli.atomic_write_json"]),
            "cli.output_bytes": per_op(output_bytes),
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
            "trace.coverage": top_level / traced_s,
        }
