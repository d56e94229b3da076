"""Calibration: a fixed pure-Python kernel timed next to every operation.

The machines the benchmark runs on are shared, and their speed drifts by
a quarter or more over seconds to minutes.  To keep that drift out of
the figures, every timed operation is preceded by one run of a fixed
kernel of the same kind: in this process for the in-process workloads,
as a fresh interpreter for ``cli-fixtures``.  The kernel's time divided
by its reference time is the machine's slowness at that moment, and the
operation's time divided by that factor is its time at reference speed.
The kernel uses nothing from ``mp4spectrum``, so a change to the program
moves the operation and not the kernel.

    python3 perfbench/calib.py     # time both kernels, to check the references
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Generic interpreted work like the program's: tuples as dict keys,
# fractions, sorting with a key function, JSON output.
KERNEL = """
from fractions import Fraction
import json
acc = {}
x = 7
for i in range(300):
    x = (x * 1103515245 + 12345) % 2147483648
    key = (x % 17, (x >> 8) % 13)
    acc[key] = acc.get(key, Fraction(0)) + Fraction(x % 97, 1 + i % 11)
rows = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
json.dumps([[a, b, str(v)] for (a, b), v in rows])
"""
# the child also pays interpreter start and the stdlib imports the CLI makes
CHILD_SOURCE = "import argparse, dataclasses, enum, itertools, typing\n" + KERNEL

_CODE = compile(KERNEL, "<calib>", "exec")

# Kernel times at reference speed: the medians of ``python3 perfbench/calib.py``
# on a 2-vCPU x86-64 VM with Python 3.11.7.  They only scale the figures; the
# ratio of two runs does not depend on them.
IN_PROCESS_REF_S = 0.0020
CHILD_REF_S = 0.060


def in_process() -> float:
    """Slowness of this interpreter now: kernel time over its reference."""
    t0 = perf_counter()
    exec(_CODE, {})
    return (perf_counter() - t0) / IN_PROCESS_REF_S


def child(root: Path) -> float:
    """Slowness of a fresh interpreter now: its start plus kernel, over the reference."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_SOURCE], cwd=root, check=True, capture_output=True, timeout=60)
    return (perf_counter() - t0) / CHILD_REF_S


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    for name, fn, ref in (("in-process", in_process, IN_PROCESS_REF_S), ("child", lambda: child(here), CHILD_REF_S)):
        times = [fn() * ref * 1000 for _ in range(200 if name == "in-process" else 40)]
        q = statistics.quantiles(times, n=4)
        print(f"{name:10s} min {min(times):.3f} ms  q1 {q[0]:.3f}  median {q[1]:.3f}  q3 {q[2]:.3f}")
