"""The three workloads: their inputs, how one operation runs, and its check.

Each workload is a closed loop with one client and one operation in
flight.  ``cli-fixtures`` runs each operation as a child process (the
parent waits for it); the other two call ``mp4spectrum.cli.main`` in this
process with stdout captured to memory.  The traced run replays
``cli-fixtures`` in process as well, since the tracer can only see this
interpreter.

An operation fails when it raises, exits with an unexpected code, or its
output fails its check; the references come from ``oracle`` (generated
scenarios) or from the fixture table in the README, never from the code
path being timed.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import calib

SUBCOMMANDS = (
    "validate",
    "classify",
    "component-group",
    "enumerate",
    "packet",
    "correspond",
    "reduce",
    "ktype",
    "residual",
    "export-tables",
    "self-test",
)


@dataclass
class Op:
    argv: list
    check: Callable[[int, str, str], bool]  # (exit code, stdout, stderr) -> ok
    malformed: bool = False
    slot: str = ""

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Outcome:
    seconds: float
    ok: bool
    code: int
    stdout: str
    stderr: str


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def typed_rejection(code: int, err: str) -> bool:
    """A malformed input ended in a typed exit code with no traceback."""
    return code in (2, 3, 4) and "Traceback" not in err


def run_in_process(argv: list) -> Outcome:
    from mp4spectrum import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an untyped escape, reported like the CLI's traceback
        t1 = perf_counter()
        return Outcome(t1 - t0, False, 1, out.getvalue(), f"Traceback (in process): {exc!r}")
    t1 = perf_counter()
    return Outcome(t1 - t0, True, code, out.getvalue(), err.getvalue())


def run_child(root: Path, argv: list) -> Outcome:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mp4spectrum.cli", *argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        return Outcome(perf_counter() - t0, False, -1, "", f"timeout: {exc}")
    t1 = perf_counter()
    return Outcome(t1 - t0, True, proc.returncode, proc.stdout, proc.stderr)


@dataclass
class Workload:
    name: str
    root: Path
    seed: int
    in_process: bool
    ops: list = field(default_factory=list)
    # one input run in a fresh interpreter after the timed loop, for peak_rss_mb
    memory_op: Op | None = None
    # time the current set-up spent computing reference results
    reference_s: float = 0.0
    # reference results by (kind, document), kept across repeated set-ups
    references: dict = field(default_factory=dict)

    @property
    def work_dir(self) -> Path:
        return self.root / ".bench_work" / f"{self.name}-{self.seed}"

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation; on a fresh checkout it also compiles the bytecode."""
        self.run(self.ops[0], in_process=self.in_process)

    def calibrate(self) -> float:
        """The machine's slowness now, as ``calib`` measures it for this workload's operations."""
        return calib.in_process() if self.in_process else calib.child(self.root)

    def run(self, op: Op, in_process: bool) -> Outcome:
        o = run_in_process(op.argv) if in_process else run_child(self.root, op.argv)
        # an exception is a failure, except on a malformed input, where it is
        # a (badly typed) rejection
        o.ok = (o.ok or op.malformed) and op.check(o.code, o.stdout, o.stderr)
        return o

    def reference(self, kind: str, doc: dict, compute: Callable[[dict], object]):
        """``compute(doc)``, once per document; set-up time leaves this call out."""
        t0 = perf_counter()
        key = (kind, json.dumps(doc, sort_keys=True))
        if key not in self.references:
            self.references[key] = compute(doc)
        self.reference_s += perf_counter() - t0
        return self.references[key]

    def _write(self, name: str, doc: dict) -> str:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# enumerate-scaled


def _enumerate_check(expected: int | None):
    def check(code, out, err):
        data = _json(out) if code == 0 else None
        return (
            data is not None
            and expected is not None
            and data["count"] == expected
            and len(data["constituents"]) == expected
            and not any(c["vanishing"] for c in data["constituents"])
        )

    return check


class EnumerateScaled(Workload):
    def __init__(self, root: Path, seed: int):
        super().__init__("enumerate-scaled", root, seed, in_process=True)

    def setup(self) -> None:
        import oracle
        import scengen
        from mp4spectrum.multiplicity import BRUTE_FORCE_PLACE_CAP, brute_force_count
        from mp4spectrum.scenario import scenario_from_dict

        def character_sums(doc):
            sc = scenario_from_dict(doc)
            sc.validate()
            tuples = oracle.character_sum_count(sc.parameter, sc.places, nonzero_only=False)
            return tuples, oracle.character_sum_count(sc.parameter, sc.places)

        def brute_force(doc):
            sc = scenario_from_dict(doc)
            return brute_force_count(sc.parameter, sc.places) if len(sc.places) <= BRUTE_FORCE_PLACE_CAP else None

        def counts(doc):
            return self.reference("counts", doc, character_sums)

        def op(name: str, slot: str, doc: dict) -> Op:
            expected = counts(doc)[1]
            if self.reference("brute-force", doc, brute_force) not in (None, expected):
                expected = None  # the two references disagree: every run of this op fails
            path = self._write(name, doc)
            return Op(["enumerate", "--scenario", path, "--format", "json"], _enumerate_check(expected), slot=slot)

        self.ops = [
            op(f"enum{i:02d}.json", slot, doc)
            for i, (slot, doc) in enumerate(scengen.enumerate_scenarios(self.seed, counts))
        ]
        self.memory_op = op("memory.json", scengen.slot_name(scengen.MEMORY_SLOT),
                            scengen.memory_scenario(self.seed, counts))


# ---------------------------------------------------------------------------
# residual-wide


def _residual_check(expected: dict):
    def check(code, out, err):
        data = _json(out) if code == 0 else None
        if data is None:
            return False
        got = collections.Counter(c["name"].split("[")[0] for c in data["constituents"])
        return dict(got) == {k: v for k, v in expected.items() if v} and data["count"] == sum(expected.values())

    return check


class ResidualWide(Workload):
    def __init__(self, root: Path, seed: int):
        super().__init__("residual-wide", root, seed, in_process=True)

    def setup(self) -> None:
        import oracle
        import scengen

        self.ops = []
        largest = 0
        for i, (slot, doc) in enumerate(scengen.residual_scenarios(self.seed)):
            path = self._write(f"residual{i:02d}.json", doc)
            expected = self.reference("residual", doc, oracle.residual_family_counts)
            self.ops.append(Op(["residual", "--scenario", path, "--format", "json"], _residual_check(expected), slot=slot))
            if sum(expected.values()) > largest:
                largest = sum(expected.values())
                self.memory_op = self.ops[-1]


# ---------------------------------------------------------------------------
# cli-fixtures

# (fixture, family, global component-group rank, constituents) from the README table
FIXTURES = (
    ("principal.json", "principal", 1, 4),
    ("sk.json", "saito-kurokawa", 2, 12),
    ("sk_steinberg.json", "saito-kurokawa", 2, 48),
    ("hps.json", "howe-piatetski-shapiro", 2, 12),
    ("hps_degenerate.json", "howe-piatetski-shapiro", 2, 2),
    ("soudry.json", "soudry", 1, 8),
    ("tempered.json", "tempered", 2, 4),
)


def _mutations(sk: dict) -> dict:
    """The six single mutations of sk.json that the schema must reject."""
    import copy

    def mutated(fn):
        doc = copy.deepcopy(sk)
        fn(doc)
        return doc

    def set_local(pid, key, value):
        return lambda d: d["cuspidal"][0]["local"][pid].__setitem__(key, value)

    return {
        "kappa_not_int": mutated(set_local("v2", "kappa", "two")),
        "gl_rank_not_int": mutated(lambda d: d["cuspidal"][0].__setitem__("gl_rank", "two")),
        "twisted_root_unknown_element": mutated(lambda d: d["cuspidal"][0]["twisted_roots"].__setitem__("zz", 1)),
        "summands_not_list": mutated(lambda d: d["parameter"].__setitem__("summands", 5)),
        "s_places_not_list": mutated(lambda d: d.__setitem__("mp2_weil", [{"name": "piw", "chi": "t", "s_places": 5}])),
        "eps_twists_not_object": mutated(set_local("v1", "eps_twists", [1])),
    }


def _expect(code_wanted: int, pred=lambda data: True):
    def check(code, out, err):
        if code != code_wanted:
            return False
        if code != 0:
            return True
        data = _json(out)
        return data is not None and pred(data)

    return check


def _rejected(code, out, err):
    # the program refused the input and printed no result; whether the exit
    # code is typed is counted separately (see typed_rejection)
    return code != 0 and not out.strip()


QUERIES = (
    ("correspond", {"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}}, 0,
     lambda d: d["round_trip"] == "ok" and d["entries"]),
    ("correspond", {"place_kind": "real", "row": {"type": "steinberg-S4", "a": "1"}}, 3, None),
    ("reduce", {"group": "Mp4", "parabolic": "P1", "chi": {"class": "u"}, "s": "1/2",
                "inner": {"type": "mp-steinberg", "class": "u"}}, 0,
     lambda d: d["reducible"] and not d["direct_sum"] and d["constituents"]),
    ("reduce", {"group": "Mp4", "parabolic": "P2", "tau": {"type": "supercuspidal", "tag": "x"}, "s": "1/2"}, 3, None),
    ("ktype", {"op": "degree", "p": 2, "q": 1, "a": [0], "eps": -1, "b": [], "delta": -1}, 0,
     lambda d: d["degree"] == 3),
    ("ktype", {"op": "catalog", "query": {"type": "discrete", "a": "5/2", "b": "3/2", "eps1": 1, "eps2": 1}}, 0,
     lambda d: any("7/2" in w for kt in d["lowest_kprime_types"] for w in kt)),
)

FIXTURES_PER_SEED = 3

TABLE_KEYS = {"hilbert", "packets", "shimura", "reducibility", "elementary_weil", "ktypes"}


class CliFixtures(Workload):
    def __init__(self, root: Path, seed: int):
        super().__init__("cli-fixtures", root, seed, in_process=False)

    def setup(self) -> None:
        fx = self.root / "fixtures"
        ops = []
        for name, family, rank, count in FIXTURES:
            path = str(fx / name)
            doc = json.loads((fx / name).read_text(encoding="utf-8"))

            def scen(sub, pred, extra=()):
                ops.append(Op([sub, "--scenario", path, *extra, "--format", "json"], _expect(0, pred), slot=name))

            scen("validate", lambda d: d["ok"] is True)
            scen("classify", lambda d, f=family: d["type"] == f)
            scen("component-group", lambda d, r=rank: d["rank"] == r and len(d["localizations"]) > 0)
            scen("enumerate", lambda d, c=count: d["count"] == c and len(d["constituents"]) == c)
            scen("residual", lambda d: d["count"] == len(d["constituents"]))
            scen("self-test", lambda d, c=count: d["ok"] is True and d["enumerated"] == d["oracle"] == c)
            for place in doc["places"]:
                pid = place["id"]
                scen("packet", lambda d, p=pid: d["place"] == p and len(d["entries"]) > 0, ("--place", pid))
        for sub, query, code, pred in QUERIES:
            check = _expect(code, pred) if pred else _expect(code)
            ops.append(Op([sub, "--query", json.dumps(query), "--format", "json"], check, slot="query"))
        ops.append(Op(["export-tables", "--format", "json"], _expect(0, lambda d: TABLE_KEYS <= set(d)), slot="tables"))
        sk = json.loads((fx / "sk.json").read_text(encoding="utf-8"))
        for label, doc in _mutations(sk).items():
            path = self._write(f"sk_{label}.json", doc)
            ops.append(Op(["validate", "--scenario", path, "--format", "json"], _rejected, malformed=True, slot=label))
        self.ops = self._sample(ops)

    def _sample(self, ops: list) -> list:
        """The seed's share of the scenario calls, and every other call.

        Per scenario subcommand the seed picks FIXTURES_PER_SEED fixtures
        (FIXTURES_PER_SEED packet calls in all), so that each call repeats
        about five times in a run; the seeds rotate through all fixtures.
        """
        rng = random.Random(f"cli-fixtures/{self.seed}")
        by_sub: dict = {}
        for op in ops:
            if op.slot.endswith(".json"):
                by_sub.setdefault(op.subcommand, []).append(op)
        picked = {id(op) for group in by_sub.values() for op in rng.sample(group, FIXTURES_PER_SEED)}
        return [op for op in ops if not op.slot.endswith(".json") or id(op) in picked]


WORKLOADS = {
    "cli-fixtures": CliFixtures,
    "enumerate-scaled": EnumerateScaled,
    "residual-wide": ResidualWide,
}
