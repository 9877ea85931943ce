"""Command-line driver: exact analysis, sampled runs, sweeps, self-checks.

All files are written to a temporary name and atomically renamed, so a
crash never leaves a partial result behind. Exit codes: 0 success, 1 a
validation or internal consistency failure, 2 a config problem, and 143 for
a process ended by SIGTERM.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import signal
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, belltests, inversion, measurement, sampler, states
from .config import SETTING_KEYS, ExperimentConfig, load_config
from .errors import BellshotError, ConfigError, ConsistencyError, OutOfRange
from .measurement import GAMMA_MIN, OUTCOME_ORDER_DOC, GammaSet
from .sampler import RngConfig, ShotDraws

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

# Grid points per array block of a sweep on either axis. A Werner block's Born
# traces hold a (SWEEP_BLOCK, 4, 16, 4) complex product: a 10000-point Werner sweep
# peaks at 34.4 MB in blocks of 256, 39.1 MB in blocks of 1024 and 45.0 MB in blocks
# of 2048, in process (numpy 2.4, Python 3.11, x86-64 Linux).
SWEEP_BLOCK = 256
# Sweep rows laid out as text at once, in whole blocks. sampler.csv_lines over 10000 Werner rows
# takes 9.9 ms in calls of 256, 4.6 at 1024, 3.8 at 2048, 5.0 at 4096 and 5.7 (4.2 MB traced
# peak) at 8192, best of 15 (numpy 2.4, Python 3.11, 2-vCPU x86-64 Linux).
SWEEP_TEXT_ROWS = 2048


def atomic_write_json(path: str, payload: dict) -> None:
    _atomic_write(path, lambda fh: fh.write(json_text(payload).encode() + b"\n"))


def json_text(value) -> str:
    """json.dumps(value, indent=2), character for character, for str keys.

    With indent set, json encodes in pure Python. Here only the containers
    recurse in Python: finite floats print by float.__repr__ and strings by
    encode_basestring_ascii, as json's C encoder does; every other leaf,
    NaN and +-inf included, goes through json.dumps itself. Each distinct
    float is formatted once per document, through a table made for this call.
    """
    return _json_text(value, "\n", _FloatTexts())


class _FloatTexts(dict):
    """The JSON text of each float of one document, formatted on first lookup. Only
    exact floats are looked up, so an int, a bool or a numpy float, equal to a float
    but printed otherwise, never reads its entry; and only finite nonzero floats are
    kept, since 0.0 equals -0.0 and NaN equals nothing."""

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        if not math.isfinite(value):
            return json.dumps(value)
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text


_FLOAT_ONLY = frozenset({float})


def _json_text(value, indent: str, floats: _FloatTexts) -> str:
    if type(value) is float:
        return floats[value]
    if type(value) is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": "
                 + (floats[v] if type(v) is float else _json_text(v, inner, floats))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        separator = "," + inner
        if set(map(type, value)) == _FLOAT_ONLY:  # a list of floats, in one pass
            items = separator.join(map(floats.__getitem__, value))
        else:
            items = separator.join([_json_text(v, inner, floats) for v in value])
        return "[" + inner + items + indent + "]"
    return json.dumps(value)


_TEMP_FILES = set()  # the temp files _atomic_write is filling, which _terminate removes


def _atomic_write(path: str, write):
    """Let write(fh) fill a new binary file beside path, then close it, rename it onto
    path and return what write returned. The file is created exclusively, with mode
    0o666 less the umask, as open() gives; if anything fails after that, it is removed."""
    tmp = os.path.join(os.path.dirname(path) or ".", f".bellshot-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")  # a name that exists is never this call's to remove
        _TEMP_FILES.add(tmp)
        try:
            with fh:
                result = write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        finally:
            _TEMP_FILES.discard(tmp)
    except OSError as exc:  # path is a directory; --out is read-only or full
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror}") from exc
    return result


def _terminate(signum, frame):
    """SIGTERM's handler in a bellshot process: remove the temp files being written and exit
    128 + signum at once. SIGTERM's default action would leave them behind, and a SystemExit
    raised here is lost where the handler runs inside a weakref callback or finalizer, as it
    can during the lazy import of numpy.random at a run's first draw, and the run goes on."""
    for tmp in list(_TEMP_FILES):
        try:
            os.unlink(tmp)
        except OSError:  # renamed into place already
            pass
    os._exit(128 + signum)


def cmd_exact(config: ExperimentConfig, out_dir: str) -> int:
    """Full exact analysis of one configuration, written as JSON."""
    _, observed, quasi, chsh, ch = belltests.exact_analysis(config.state, config.settings, config.gammas)
    payload = {
        "ordering": OUTCOME_ORDER_DOC,
        "gammas": dict(zip(SETTING_KEYS, config.gammas.as_tuple())),
        "observed_statistics": observed.tolist(),
        "quasi_distribution": quasi.to_list(),
        "min_quasi_entry": quasi.min_entry(),
        "negative": quasi.is_negative(),
        **chsh.as_dict(),
        **ch.as_dict(),
        "verdicts": {
            "chsh": belltests.classical_bounds_check(chsh),
            "ch": belltests.classical_bounds_check(ch),
        },
    }
    path = os.path.join(out_dir, "exact.json")
    atomic_write_json(path, payload)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_run(config: ExperimentConfig, out_dir: str) -> int:
    """Sample shots, log them as CSV, and summarize convergence as JSON. The shots are
    drawn in chunks, written and summed on the way; a second pass redraws them for the
    spread, so memory does not grow with the shot count. The exact analysis, with its route
    checks, runs before any shot is drawn; the shot mean and the inverted frequencies give
    the empirical S along two routes, which must agree before shots.csv is renamed into place."""
    if config.shots < 1:
        raise ConfigError("run requires shots >= 1 (set shots in config or pass --shots)")
    kernel, observed, _, chsh, _ = belltests.exact_analysis(config.state, config.settings, config.gammas)
    try:
        shots = ShotDraws(observed, config.shots, RngConfig(config.seed, config.stream_count))
    except OutOfRange as exc:  # more shots than a running mean can count exactly
        raise ConfigError(f"shots: {exc}") from None
    csv_path = os.path.join(out_dir, "shots.csv")

    def write(fh):
        counts, summary = sampler.stream_summary(chsh.single_shot_S, shots, fh)
        quasi = inversion.invert_distribution(kernel, counts / summary["shots"])
        via_freqs = belltests.ensemble_chsh(quasi)
        belltests.require_agreement("empirical S", via_freqs, summary["mean_S"],
                                    lambda: "frequency inversion vs shot mean")
        return summary, quasi, via_freqs

    summary, empirical_quasi, via_freqs = _atomic_write(csv_path, write)
    payload = {
        "shots": summary["shots"],
        "seed": config.seed,
        "stream_count": config.stream_count,
        "empirical_S": summary["mean_S"],
        "sample_std": summary["sample_std"],
        "std_error": summary["std_error"],
        "exact_S": chsh.ensemble_S,
        "verdicts": {"empirical_S": belltests.chsh_verdict(via_freqs).as_dict()},
        "empirical_quasi_distribution": empirical_quasi.to_list(),
        "empirical_min_quasi_entry": empirical_quasi.min_entry(),
        "empirical_negative": empirical_quasi.is_negative(),
    }
    json_path = os.path.join(out_dir, "run_summary.json")
    atomic_write_json(json_path, payload)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _sweep_grid(args) -> list[float]:
    if args.grid_values is not None:
        return [float(v) for v in args.grid_values]
    start, stop, points = args.grid_range
    for flag, value in (("START", start), ("STOP", stop), ("STOP - START", stop - start)):
        if not math.isfinite(value):  # linspace would warn and yield NaN points
            raise ConfigError(f"sweep --grid-range {flag} {value!r} is not finite")
    if not points.is_integer():
        raise ConfigError(f"sweep --grid-range POINTS must be an integer, got {points!r}")
    n = int(points)
    if n < 2:
        raise ConfigError("sweep --grid-range needs at least 2 points")
    try:  # numpy refuses n, or fails to allocate the array or the list of its points
        return np.linspace(start, stop, n).tolist()
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"sweep --grid-range POINTS {points!r} is too many: {exc}")


def _sweep_columns(config: ExperimentConfig, axis: str, grid: list[float]):
    """Sweep columns, one tuple per SWEEP_BLOCK grid points. Along gamma, kernels and realizability
    are stacked against one gamma-free quasi-distribution, whose ensemble S (on that one route)
    and min entry survive the exact inversion, and whose pair marginals are checked once against
    their sharp Born values; along werner_eta, states and quasi-distributions are stacked against
    kernel columns computed once, ensemble S passes both routes, and each block's observed and
    quasi pair marginals are checked against their Born values. A column that is the same over
    the whole sweep is given once, as its CSV text."""
    def kernel_columns(chsh, gammas):  # abs_single_shot_S, ch_min, ch_max
        ch = belltests.single_shot_ch_tables(gammas)
        return np.abs(chsh).max(axis=-1), ch.min(axis=(-2, -1)), ch.max(axis=(-2, -1))

    if axis == "gamma":
        quasi = inversion.gamma_free_quasi(config.state, config.settings).entries
        belltests.require_born_pair_marginals(config.state.matrix, config.settings,
                                              {"quasi": (quasi, (1.0,) * 4)})
        ensemble_S, min_quasi = (_text(v) for v in (belltests.ensemble_chsh_values(quasi), quasi.min()))
    elif axis == "werner_eta":
        kernel = inversion.build_kernel(config.gammas)
        povm = measurement.joint_povm(config.settings, config.gammas)
        chsh = belltests.single_shot_chsh_tables(kernel.table, config.gammas.as_tuple())
        kernel_side = tuple(map(_text, kernel_columns(chsh, config.gammas.as_tuple())))
        realizable_column = b"1"
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    for start in range(0, len(grid), SWEEP_BLOCK):
        values = grid[start:start + SWEEP_BLOCK]
        points = np.array(values)
        if axis == "gamma":
            gammas = np.repeat(points[:, None], 4, axis=1)  # GammaSet.equal per row
            bad = ~GammaSet.admits(gammas)
            if np.any(bad):
                raise ConfigError(f"sweep gamma {values[np.argmax(bad)]!r} outside "
                                  f"[{GAMMA_MIN ** 0.25:.4g}, 1] in magnitude")
            tables = inversion.kernel_tables(gammas)
            inversion.require_column_sums(tables)
            kernel_side = kernel_columns(belltests.single_shot_chsh_tables(tables, gammas), gammas)
            realizable_column = measurement.realizable(config.settings, gammas)
        else:
            bad = ~((0.0 <= points) & (points <= 1.0))
            if np.any(bad):
                raise ConfigError(f"sweep werner_eta {values[np.argmax(bad)]!r} outside [0, 1]")
            rho = states.density_matrices(states.werner_matrices(points), stack_axes=1)
            p = measurement.born_probabilities(rho, povm)
            quasi = inversion.inverted_entries(kernel, p)
            inversion.require_quasi_entries(quasi)
            ensemble_S = belltests.ensemble_chsh_values(quasi)
            belltests.require_agreement("ensemble CHSH", ensemble_S, p @ chsh,
                                        lambda i: f"werner_eta {values[i]!r}")
            routes = {"observed": (p, config.gammas.as_tuple()), "quasi": (quasi, (1.0,) * 4)}
            belltests.require_born_pair_marginals(rho, config.settings, routes,
                                                  lambda i: f"werner_eta {values[i]!r} ")
            min_quasi = quasi.min(axis=-1)
        yield points, ensemble_S, *kernel_side, min_quasi, realizable_column


def _text(value) -> bytes:
    """One float's '%.17g' text, for a column the whole sweep shares."""
    return b"%.17g" % float(value)


def cmd_sweep(config: ExperimentConfig, out_dir: str, axis: str, grid: list[float]) -> int:
    """One CSV row per grid point along a gamma or Werner-eta axis, computed in blocks of
    SWEEP_BLOCK points, laid out as text per SWEEP_TEXT_ROWS rows, and byte-identical to a
    point-by-point run.
    `realizable` says whether the product-form joint POVM is positive there, not whether any
    positive joint measurement exists: another form can be positive where it is not."""
    header = (axis, "ensemble_S", "abs_single_shot_S", "ch_min", "ch_max",
              "min_quasi_entry", "realizable")

    def write(fh) -> None:
        fh.write(",".join(header).encode() + b"\n")
        blocks = _sweep_columns(config, axis, grid)
        while batch := list(itertools.islice(blocks, max(1, SWEEP_TEXT_ROWS // SWEEP_BLOCK))):
            # a column's shared text is the same in every block
            fh.write(sampler.csv_lines([c[0] if isinstance(c[0], bytes) else np.concatenate(c)
                                        for c in zip(*batch)]))

    path = os.path.join(out_dir, f"sweep_{axis}.csv")
    _atomic_write(path, write)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(seed: int, trials: int) -> int:
    """Run the randomized invariant suite and report per-module counts."""
    from .validate import validate_all  # imported by the one command that runs it
    report = validate_all(seed, trials=trials)
    print(f"validation seed: {report.seed}")
    for result in report.results:
        status = "ok" if result.passed else "FAIL"
        print(f"  {result.name}: {result.checks} checks {status}")
        for message in result.failures:
            print(f"    {message}")
    print(f"total: {report.total_checks} checks, "
          f"{'all passed' if report.passed else 'FAILURES PRESENT'}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args never changes it."""
    parser = argparse.ArgumentParser(
        prog="bellshot",
        description="Single-shot Bell tests from one joint noisy measurement",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        return p

    add_common(sub.add_parser("exact", help="exact statistics, tests, and verdicts"))
    run = add_common(sub.add_parser("run", help="sample shots and summarize convergence"))
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--shots", type=int, default=None, help="override the config shot count")

    sweep = add_common(sub.add_parser("sweep", help="tabulate test values along a parameter axis"))
    sweep.add_argument("--axis", required=True, choices=("gamma", "werner_eta"))
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid-values", nargs="+", type=float, help="explicit grid points")
    group.add_argument(
        "--grid-range",
        nargs=3,
        metavar=("START", "STOP", "POINTS"),
        type=float,
        help="evenly spaced grid",
    )

    val = sub.add_parser("validate", help="randomized self-checks of every module")
    val.add_argument("--seed", type=int, default=None, help="seed for the randomized checks")
    val.add_argument("--trials", type=int, default=sampler.DEFAULT_TRIALS,
                     help="trials per randomized check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(4), "big")
            return cmd_validate(sampler.checked_integer("seed", seed, ConfigError),
                                sampler.checked_integer("trials", args.trials, ConfigError))

        # only run has --seed and --shots
        overrides = {k: v for k in ("seed", "shots") if (v := getattr(args, k, None)) is not None}
        config = load_config(args.config, **overrides)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r}: cannot create the output directory: {exc}")

        if args.command == "exact":
            return cmd_exact(config, args.out)
        if args.command == "run":
            return cmd_run(config, args.out)
        return cmd_sweep(config, args.out, args.axis, _sweep_grid(args))  # argparse admits no other
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BellshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def process_main() -> int:
    """main in a process of its own: `python -m bellshot.cli` and the bellshot script. The
    objects that importing made live until exit; frozen first, they are not walked again by
    the collections at interpreter exit. On SIGTERM, _terminate removes the temp file of an
    output being written and exits 143 (128 + SIGTERM). main() leaves an in-process caller's
    collector and signal handlers be."""
    gc.freeze()
    signal.signal(signal.SIGTERM, _terminate)
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
