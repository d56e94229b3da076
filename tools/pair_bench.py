"""Paired benchmark runs of two copies of the tree, summarized in the shape of BENCH_*.json.

    python3 tools/pair_bench.py --parent ../parent --change . --seeds 1-10 --out pairs.json

For each workload and seed it runs ``perfbench/run.py --workload <w>
--seed <i> --seconds <s> --trace 0`` once in each tree, from that tree's
own ``perfbench``, with ``<s>`` the ``run_seconds`` of ``BENCHMARK.json``:
the parent first on odd seeds, the change first on even seeds.  For each end-to-end metric of ``BENCHMARK.json`` it prints
the median [q1, q3] of each side and the number of pairs the change won,
and ``--out`` writes the same figures, with every run, as the
``end_to_end`` record of a BENCH_*.json.

``--trace 1`` runs ``--trace 1`` instead (once per seed and side, in the
same order) and summarizes the ``--metric`` per-layer metrics the same
way.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_order(seed: int) -> tuple[str, str]:
    """The side that runs first, then the other: the parent on odd seeds, the change on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def parse_result(stdout: str) -> dict:
    """run.py's result: the JSON object on the last line of its standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return parse_result(out.stdout)


def _side(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def summarize(spec: list, pairs: list) -> dict:
    """One workload's record from its (parent result, change result) pairs, a metric per spec entry.

    A spec entry has the metric's name, unit and better ("lower" or
    "higher"), and its bound when it is an end-to-end metric.
    """
    record = {
        "pairs": len(pairs),
        "failed_ops": {side: sum(p[k]["failed"] for p in pairs) for k, side in enumerate(SIDES)},
        "attempted_ops": {side: sum(p[k]["attempted"] for p in pairs) for k, side in enumerate(SIDES)},
    }
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        runs = [[p[k]["metrics"][name]["value"] for p in pairs] for k in range(2)]
        parent, change = _side(runs[0]), _side(runs[1])
        worse_by = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
        entry = {"unit": m["unit"], "better": m["better"], **({"bound": m["bound"]} if "bound" in m else {}),
                 "parent": parent, "change": change,
                 "change_better_in_pairs": sum((c < p) if lower else (c > p) for p, c in zip(*runs)),
                 "change_worse_by": round(worse_by if lower else -worse_by, 4)}
        if "bound" in m:
            entry["within_bound"] = entry["change_worse_by"] <= m["bound"]
        record[name] = entry
    return record


def report_lines(workload: str, record: dict) -> list:
    lines = [f"{workload}: {record['pairs']} pairs, failed ops parent {record['failed_ops']['parent']} "
             f"change {record['failed_ops']['change']}"]
    for name, e in record.items():
        if isinstance(e, dict) and "change_better_in_pairs" in e:
            p, c = e["parent"], e["change"]
            lines.append(f"  {name}: parent {p['median']} [{p['q1']}, {p['q3']}]  change {c['median']} "
                         f"[{c['q1']}, {c['q3']}]  change better in {e['change_better_in_pairs']} of {record['pairs']}")
    return lines


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="copy of the tree at the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="copy of the tree with the change")
    ap.add_argument("--workloads", help="comma-separated; default every workload of BENCHMARK.json")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="a seed or a range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metric", action="append", default=[], help="a per-layer metric (with --trace 1)")
    ap.add_argument("--out", type=Path, help="write the records here as JSON")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    spec = bench["end_to_end"] if not args.trace else [m for m in bench["per_layer"] if m["name"] in args.metric]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = {}
    for workload in workloads:
        pairs = []
        for seed in args.seeds:
            result = {side: run_once(trees[side], workload, seed, bench["run_seconds"], args.trace) for side in run_order(seed)}
            pairs.append((result["parent"], result["change"]))
        records[workload] = summarize(spec, pairs)
        print("\n".join(report_lines(workload, records[workload])), flush=True)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
