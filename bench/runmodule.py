"""Run a module as ``python -m`` would, then record this process's peak RSS.

Usage: python bench/runmodule.py RSS_FILE MODULE [ARG ...]

A child's ``ru_maxrss`` as its parent sees it (``os.wait4``,
``RUSAGE_CHILDREN``) is at least the parent's own peak, because the kernel
carries the high-water mark across exec. ``VmHWM`` belongs to the memory
image that exec created, so it is this program's peak alone. It is written
to RSS_FILE in MB, even when the module exits with an error.
"""

from __future__ import annotations

import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main() -> None:
    rss_path, module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open(rss_path, "w") as fh:
            fh.write(f"{peak_rss_mb()!r}\n")


if __name__ == "__main__":
    main()
