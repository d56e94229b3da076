"""tools/pair_bench.py on canned result lines of perfbench/run.py."""

import importlib.util
import json
import os
import statistics

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location("pair_bench", os.path.join(ROOT, "tools", "pair_bench.py"))
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

SPEC = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _line(p50, ops, failed=0, attempted=100):
    """A result as run.py prints it: lines for a reader, then the JSON object last."""
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"}, "ops_per_s": {"value": ops, "unit": "1/s"}}
    result = {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
    return f"latency_p50_ms {p50}\nops_per_s {ops}\n{json.dumps(result)}\n"


def test_run_order_alternates():
    assert [pair_bench.run_order(seed) for seed in (1, 2, 3)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
    ]


def test_summary_of_canned_lines():
    parent = [3.0, 3.1, 2.9, 3.2, 3.05]
    change = [2.7, 2.8, 3.0, 2.6, 3.1]
    pairs = [
        (pair_bench.parse_result(_line(p, 1000 / p)), pair_bench.parse_result(_line(c, 1000 / c, failed=k == 0)))
        for k, (p, c) in enumerate(zip(parent, change))
    ]
    record = pair_bench.summarize(SPEC, pairs)
    assert record["pairs"] == 5
    assert record["failed_ops"] == {"parent": 0, "change": 1}
    assert record["attempted_ops"] == {"parent": 500, "change": 500}
    p50 = record["latency_p50_ms"]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert p50["parent"] == {"median": 3.05, "q1": round(q1, 4), "q3": round(q3, 4), "runs": parent}
    assert p50["change"]["median"] == 2.8
    # pairs won: 2.7 < 3.0, 2.8 < 3.1, 2.6 < 3.2; not 3.0 > 2.9 nor 3.1 > 3.05
    assert p50["change_better_in_pairs"] == 3
    assert p50["change_worse_by"] == round((2.8 - 3.05) / 3.05, 4) and p50["within_bound"]
    ops = record["ops_per_s"]
    assert ops["better"] == "higher" and ops["change_better_in_pairs"] == 3
    assert ops["change_worse_by"] == round(-(ops["change"]["median"] - ops["parent"]["median"]) / ops["parent"]["median"], 4)
    lines = pair_bench.report_lines("residual-wide", record)
    assert lines[1] == f"  latency_p50_ms: parent 3.05 [{round(q1, 4)}, {round(q3, 4)}]  change 2.8 " \
        f"[{p50['change']['q1']}, {p50['change']['q3']}]  change better in 3 of 5"


def test_worse_beyond_the_bound_is_flagged():
    pairs = [(pair_bench.parse_result(_line(1.0, 10.0)), pair_bench.parse_result(_line(1.5, 9.0)))] * 3
    record = pair_bench.summarize(SPEC, pairs)
    assert record["latency_p50_ms"]["change_worse_by"] == 0.5
    assert not record["latency_p50_ms"]["within_bound"]
    assert record["ops_per_s"]["within_bound"] and record["ops_per_s"]["change_better_in_pairs"] == 0
    # a per-layer metric has no bound, so no within_bound either
    layer = pair_bench.summarize([{"name": "latency_p50_ms", "unit": "ms", "better": "lower"}], pairs)
    assert "bound" not in layer["latency_p50_ms"] and "within_bound" not in layer["latency_p50_ms"]


@pytest.mark.parametrize("text, seeds", [("3", [3]), ("1-4", [1, 2, 3, 4])])
def test_seed_ranges(text, seeds):
    assert pair_bench._seeds(text) == seeds
