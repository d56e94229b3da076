"""Benchmark for mp4spectrum: one workload, one seed, one run.

    python3 perfbench/run.py --workload enumerate-scaled --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from ``src/`` next to
this directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat the figures for a reader.

``--trace 0`` measures the end-to-end metrics with nothing patched.  A
run is a closed loop of passes over the workload's inputs.  Every
operation is preceded by a fixed calibration kernel (``calib``) and its
time is divided by the kernel's slowness at that moment, so times are at
reference speed whatever the shared machine is doing; each input's
latency is the median of its operations, and the latency quantiles and
throughput are taken over inputs (README.md says why).
``--trace 1`` measures the per-layer metrics instead: it times import in
fresh interpreters, runs the workload in process untraced and then
traced (their ratio is the tracer's overhead), and writes the spans to
``.bench_work/trace-<workload>-<seed>.jsonl``.  See README.md for what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import calib
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
# share of a traced run spent untraced, for the overhead ratio and cli.main_ms
UNTRACED_SHARE = 0.4

LAYERS = (
    "cli",
    "reports",
    "scenario",
    "fields",
    "parameters",
    "localization",
    "packets",
    "descriptors",
    "chargroups",
    "multiplicity",
    "residual",
    "tables",
    "ktypes",
)
IMPORT_MODULES = ("package",) + LAYERS
# functions whose time is reported as a per-operation total, not as calls and self time
TOTAL_ONLY = ("reports.emit", "scenario.load", "scenario.validate")


def _in_spec_order(values: dict, spec: list) -> dict:
    """{name: (value, unit)} in BENCHMARK.json's order; the two name lists must agree."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(set(values) - set(names))}; "
                       f"not measured: {sorted(set(names) - set(values))}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


class Tally:
    """Outcomes of the operations of one loop, keyed by input."""

    def __init__(self):
        self.latencies: list = []
        self.best: dict = {}  # input index -> fastest operation on it, seconds
        self.scaled: dict = {}  # input index -> its operations at reference speed, seconds
        self.slowness: list = []
        self.attempted = 0
        self.failed = 0
        self.malformed = 0
        self.untyped = 0
        self.failures: list = []

    def add(self, index: int, op, outcome, slowness=None) -> None:
        self.latencies.append(outcome.seconds)
        self.best[index] = min(outcome.seconds, self.best.get(index, outcome.seconds))
        if slowness is not None:
            self.slowness.append(slowness)
            self.scaled.setdefault(index, []).append(outcome.seconds / slowness)
        self.check(op, outcome)

    def check(self, op, outcome) -> None:
        """Count an operation and its outcome, without its latency."""
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.slot} {op.argv[0]}: exit {outcome.code} {outcome.stderr.strip()[-300:]}")
        if op.malformed:
            self.malformed += 1
            self.untyped += not workloads.typed_rejection(outcome.code, outcome.stderr)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.malformed += other.malformed
        self.untyped += other.untyped
        self.failures += other.failures

    def best_pass_s(self) -> float:
        """One pass over every input run, each at its fastest."""
        return sum(self.best.values())


def run_loop(workload, seconds: float, rng: random.Random, in_process: bool, tally, trace=None, min_ops=0,
             calibrate=False):
    """Closed loop, one operation in flight, until ``seconds`` have passed.

    Each pass runs every input once, in a fresh seeded order; the loop stops
    after the operation that crosses the deadline, but not before it has
    run ``min_ops`` operations.  With ``calibrate`` the calibration kernel
    runs right before each operation.
    """
    start = perf_counter()
    min_ops += tally.attempted
    while True:
        order = list(range(len(workload.ops)))
        rng.shuffle(order)
        for index in order:
            op = workload.ops[index]
            slowness = workload.calibrate() if calibrate else None
            if trace is not None:
                trace.begin_op(tally.attempted)
            outcome = workload.run(op, in_process)
            if trace is not None:
                trace.end_op()
            tally.add(index, op, outcome, slowness)
            if perf_counter() - start >= seconds and tally.attempted >= min_ops:
                return


def set_up(workload) -> float:
    """Median time at reference speed of SETUP_REPEATS identical set-ups (inputs, files, warm-up).

    Computing the reference results is left out: it is the benchmark's
    own work, not the program's.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        slowness = workload.calibrate()
        workload.reference_s = 0.0
        t0 = perf_counter()
        workload.setup()
        workload.warm_up()
        times.append((perf_counter() - t0 - workload.reference_s) / slowness)
    return statistics.median(times)


def start_up() -> float:
    """Median time at reference speed of a fresh interpreter that imports ``mp4spectrum.cli``."""
    cmd = [sys.executable, "-c", "import mp4spectrum.cli"]
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(SETUP_REPEATS):
        slowness = calib.child(ROOT)
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        times.append((perf_counter() - t0) / slowness)
    return statistics.median(times)


def _p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end(workload, args, spec) -> tuple:
    # an in-process workload starts an interpreter and imports the package
    # once; cli-fixtures pays that in every operation instead
    setup_s = (start_up() if workload.in_process else 0.0) + set_up(workload)
    tally = Tally()
    rng = random.Random(f"order/{args.workload}/{args.seed}")
    run_loop(workload, args.seconds, rng, workload.in_process, tally, calibrate=True)
    # peak RSS is taken over child processes only: the loop's children on
    # cli-fixtures, the memory input's on the others (never this process,
    # which also holds the inputs and the references)
    if workload.memory_op is not None:
        tally.check(workload.memory_op, workload.run(workload.memory_op, in_process=False))
    per_input = [statistics.median(xs) for xs in tally.scaled.values()]
    values = {
        "latency_p50_ms": statistics.median(per_input) * 1000,
        "latency_p90_ms": _p90(per_input) * 1000,
        "ops_per_s": len(per_input) / sum(per_input),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    every = [s * 1000 for s in tally.latencies]
    slow = statistics.quantiles(tally.slowness, n=4)
    note = (f"  every operation as measured: p50 {statistics.median(every):.3f} ms  p90 {_p90(every):.3f} ms  "
            f"{len(every) / sum(every) * 1000:.4f} ops/s over {len(every)} operations on {len(per_input)} inputs\n"
            f"  slowness against calib's reference: q1 {slow[0]:.3f}  median {slow[1]:.3f}  q3 {slow[2]:.3f}")
    return tally, _in_spec_order(values, spec["end_to_end"]), note


def _kb_per_constituent(workload) -> float:
    """tracemalloc peak per constituent of the memory input's enumerate, in KiB."""
    op = workload.memory_op
    if op is None or op.subcommand != "enumerate":
        return 0.0
    tracemalloc.start()
    try:
        outcome = workload.run(op, in_process=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024 / json.loads(outcome.stdout)["count"] if outcome.ok else 0.0


def traced(workload, args, spec) -> tuple:
    workload.setup()
    workload.warm_up()
    env = dict(os.environ, PYTHONPATH="src")
    imports = tracer.import_profile(ROOT, env)
    rng = random.Random(f"order/{args.workload}/{args.seed}")

    # each phase covers every input at least once, for the overhead ratio
    one_pass = len(workload.ops)
    plain = Tally()
    run_loop(workload, args.seconds * UNTRACED_SHARE, rng, True, plain, min_ops=one_pass)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced_tally = Tally()
        run_loop(workload, args.seconds * (1 - UNTRACED_SHARE), rng, True, traced_tally, tr, min_ops=one_pass)
    finally:
        tr.uninstall()
    kb = _kb_per_constituent(workload)
    trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(trace_path)

    n = traced_tally.attempted
    v = {"import.floor_ms": imports["floor_ms"], "import.total_ms": imports["total_ms"]}
    for m in IMPORT_MODULES:
        mod = tracer.PACKAGE if m == "package" else f"{tracer.PACKAGE}.{m}"
        v[f"import.self_ms.{m}"] = imports["self_ms"].get(mod, 0.0)
    for sub in workloads.SUBCOMMANDS:
        xs = [s for i, s in plain.best.items() if workload.ops[i].subcommand == sub]
        v[f"cli.main_ms.{sub}"] = statistics.mean(xs) * 1000 if xs else 0.0
    v["reports.emit_ms"] = tr.total_s["reports.emit"] * 1000 / n
    v["scenario.load_ms"] = tr.total_s["scenario.load"] * 1000 / n
    v["scenario.validate_ms"] = tr.total_s["scenario.validate"] * 1000 / n
    for name, *_ in tracer.TARGETS:
        if name in TOTAL_ONLY:
            continue
        v[f"{name}.calls"] = tr.calls[name] / n
        v[f"{name}.self_ms"] = tr.self_s[name] * 1000 / n
    tuples = tr.counts["multiplicity.tuples"]
    v["multiplicity.tuples"] = tuples / n
    v["multiplicity.constituents"] = tr.counts["multiplicity.constituents"] / n
    v["multiplicity.useful_ratio"] = tr.counts["multiplicity.constituents"] / tuples if tuples else 0.0
    v["multiplicity.us_per_tuple"] = tr.total_s["multiplicity.enumerate_constituents"] * 1e6 / tuples if tuples else 0.0
    v["multiplicity.kb_per_constituent"] = kb
    for name in ("localization.localize", "packets.local_packet"):
        calls = tr.calls[name]
        v[f"{name}.distinct_ratio"] = tr.counts[name + ".distinct"] / calls if calls else 0.0
    v["fields.reciprocity_pairs"] = tr.counts["fields.reciprocity_pairs"] / n
    v["residual.constituents"] = tr.counts["residual.constituents"] / n
    layer_s = tr.module_self_s()
    for m in LAYERS:
        v[f"layer.self_ms.{m}"] = layer_s.get(m, 0.0) * 1000 / n
    v["trace.overhead_ratio"] = plain.best_pass_s() / traced_tally.best_pass_s()
    v["trace.spans_per_op"] = (len(tr.spans) + tr.spans_dropped) / n
    both = Tally()
    both.merge(plain)
    both.merge(traced_tally)
    v["failed_ratio"] = both.failed / both.attempted
    v["cli.untyped_rejection_ratio"] = both.untyped / both.malformed if both.malformed else 0.0
    note = f"  spans written to {trace_path.relative_to(ROOT)}"
    return both, _in_spec_order(v, spec["per_layer"]), note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mp4spectrum" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no mp4spectrum source tree (src/, fixtures/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tally, metrics, note = (traced if args.trace else end_to_end)(workload, args, spec)

    for line in tally.failures:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {os.cpu_count()}  "
          f"python {sys.version.split()[0]}  load {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(note)
    print(f"  attempted {tally.attempted}  failed {tally.failed}  failed_ratio {tally.failed / tally.attempted:.6f}")
    if tally.malformed:
        print(f"  malformed inputs {tally.malformed}  rejected without a typed exit code {tally.untyped}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
