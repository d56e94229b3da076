"""Tests of the benchmark itself: generator, references, output format.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import collections
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calib  # noqa: E402
import oracle  # noqa: E402
import scengen  # noqa: E402
from mp4spectrum.multiplicity import brute_force_count  # noqa: E402
from mp4spectrum.residual import residual_spectrum  # noqa: E402
from mp4spectrum.scenario import scenario_from_dict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAMILIES = ("principal", "saito-kurokawa", "howe-ps", "soudry", "tempered")


def _counts(doc) -> tuple:
    sc = scenario_from_dict(doc)
    sc.validate()
    return (
        oracle.character_sum_count(sc.parameter, sc.places, nonzero_only=False),
        oracle.character_sum_count(sc.parameter, sc.places),
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_enumerate_scenarios_are_valid_and_bounded(seed):
    cases = scengen.enumerate_scenarios(seed, _counts)
    slots = [slot for slot in scengen.ENUMERATE_SLOTS for _ in range(scengen.ENUMERATE_DRAWS)]
    assert len(cases) == len(slots) == 100
    for (family, n, m, share), (name, doc) in zip(slots, cases):
        assert name == f"{family}/{n}/{m}"
        sc = scenario_from_dict(doc)
        sc.validate()
        assert len(sc.places) == n
        assert _counts(doc) == (1 << m, int((1 << m) * share))
        assert 1 << m <= scengen.TUPLE_BOUND


@pytest.mark.parametrize("seed", [1, 2])
def test_residual_scenarios_are_valid(seed):
    cases = scengen.residual_scenarios(seed)
    assert len(cases) == 100
    for slot, doc in cases:
        sc = scenario_from_dict(doc)
        sc.validate()
        assert len(sc.places) == int(slot.split("/")[1])


def test_same_seed_same_inputs():
    assert scengen.enumerate_scenarios(7, _counts) == scengen.enumerate_scenarios(7, _counts)
    assert scengen.residual_scenarios(7) == scengen.residual_scenarios(7)
    assert scengen.residual_scenarios(7) != scengen.residual_scenarios(8)


def test_character_sum_agrees_with_brute_force_on_small_draws():
    rng = random.Random(20261017)
    checked = collections.Counter()
    for _ in range(400):
        family = rng.choice(FAMILIES)
        n = rng.randrange(3, 7)
        m = rng.randrange(n - 1, 2 * n - 1)
        doc = scengen._enumerate_draw(rng, family, n, m)
        if doc is None:
            continue
        sc = scenario_from_dict(doc)
        sc.validate()
        assert oracle.character_sum_count(sc.parameter, sc.places) == brute_force_count(sc.parameter, sc.places)
        checked[family] += 1
    assert set(checked) == set(FAMILIES) and min(checked.values()) >= 20


def test_residual_closed_forms_match_the_program():
    for slot, doc in scengen.residual_scenarios(3)[::10]:
        sc = scenario_from_dict(doc)
        cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
        got = collections.Counter(c.name.split("[")[0] for c in cons)
        want = oracle.residual_family_counts(doc)
        assert dict(got) == {k: v for k, v in want.items() if v}, slot


def test_memory_scenario_is_at_the_tuple_bound():
    doc = scengen.memory_scenario(1, _counts)
    assert _counts(doc) == (scengen.TUPLE_BOUND, scengen.TUPLE_BOUND)
    assert 1 << scengen.MEMORY_SLOT[2] == scengen.TUPLE_BOUND


def test_calibration_kernel_is_independent_of_the_program():
    assert "mp4spectrum" not in calib.CHILD_SOURCE
    assert calib.in_process() > 0
    assert calib.child(ROOT) > 0


def _run(cwd: Path, workload: str, trace: int, seconds: float = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "enumerate-scaled", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
