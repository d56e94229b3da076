"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload residual-wide --seeds 1-10 [--out runs.json]

Each run is ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds``.

For every end-to-end metric it prints the median and the quartiles of
the per-seed values (``statistics.quantiles(values, n=4)``), the spread
(the interquartile distance as a share of the median) and the share of
the metric's bound in BENCHMARK.json that the spread uses.  Runs are
sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list, bounds: dict) -> list:
    rows = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows.append((name, med, q1, q3, spread, bounds[name]))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        # run.py's first line names nproc, the Python version and the load average;
        # the "every operation" line gives the figures over all operations
        result["context"] = lines[0]
        result["every"] = next((ln.strip() for ln in lines if ln.strip().startswith("every operation")), None)
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'of bound':>8s}")
    for name, med, q1, q3, spread, bound in summarize(runs, bounds):
        print(f"{name:48s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {spread / bound:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
