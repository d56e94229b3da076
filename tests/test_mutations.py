"""Seeded mutation tests: a malformed query or scenario never escapes as a traceback.

Each example starts from an accepted input and applies one to three
mutations at nodes of its JSON tree: a value swapped for one of another
type, a deleted key or list item, a list item given twice (a place,
element or datum then repeats its id or name), an unknown square-class
label, or a huge integer.  Whatever comes out, ``cli.main`` must return
one of the documented exit codes (0, or the typed failures 2, 3 and 4)
and must not raise.  The examples are derandomized, so every run replays the same ones.

The query inputs are the accepted queries of ``golden_calls``, a
``ktype`` harmonics query, one query per ``correspond`` row type and one
per ``REDUCTIONS`` pair; the scenario
inputs are the seven bundled fixtures, each run through one scenario
subcommand.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from mp4spectrum.cli import main
from mp4spectrum.packets import REDUCTIONS

from golden_calls import FIXTURE_NAMES, FIXTURES, SCENARIO_FREE_CALLS

EXIT_CODES = {0, 2, 3, 4}

SWAPS = (None, True, False, 0, -1, 1.5, "", "x", [], {}, [1], {"x": 1})
UNKNOWN_LABELS = ("zz9", "u9", "-2")
HUGE = (10**30, -(10**30), 10**8)

ROW_QUERIES = [
    {"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}},
    {"row": {"type": "orthogonal-S2", "tau": "t"}},
    {"row": {"type": "4dim", "tag": "vr"}},
    {"row": {"type": "pair-supercuspidal", "tags": ["r1", "r2"]}},
    {"row": {"type": "double-supercuspidal", "tag": "r0"}},
    {"row": {"type": "double-steinberg", "a": "u"}},
    {"row": {"type": "steinberg-pair", "a": "u", "b": "1"}},
    {"place_kind": "nonarch-odd-1mod4", "row": {"type": "sc-plus-S2", "tag": "t", "a": "p", "eps": -1}},
]

_TAU = {"tau": {"type": "supercuspidal", "tag": "t"}, "s": "1/2", "omega_trivial": False}
REDUCE_QUERIES = [
    {"group": "Mp4", "parabolic": "P1", "chi": {"class": "u"}, "s": "1/2", "inner": {"type": "weil-odd", "class": "u"}},
    {"group": "Mp4", "parabolic": "P2", **_TAU},
    {"group": "SO5+", "parabolic": "Q1", "chi": "u", "s": "3/2", "inner": {"type": "gl2-steinberg", "class": "u"}},
    {"group": "SO5+", "parabolic": "Q2", **_TAU},
    {"group": "SO5-", "parabolic": "Q1", "chi": {"class": "u"}, "s": "1/2", "inner": {"type": "nu", "class": "u"}},
]

HARMONICS_QUERY = {"op": "harmonics", "p": 2, "q": 1, "a": [0], "eps": 1, "b": [], "delta": 1, "n": 2}

QUERIES = (
    [(argv[0], json.loads(argv[2])) for argv in SCENARIO_FREE_CALLS.values() if "--query" in argv]
    + [("ktype", HARMONICS_QUERY)]
    + [("correspond", q) for q in ROW_QUERIES]
    + [("reduce", q) for q in REDUCE_QUERIES]
)

SCENARIO_COMMANDS = (
    ["validate"],
    ["classify"],
    ["component-group"],
    ["enumerate", "--verbose"],
    ["packet"],
    ["residual"],
    ["self-test"],
)


def _fixture_doc(name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


FIXTURE_DOCS = [(name, _fixture_doc(name)) for name in FIXTURE_NAMES]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _paths(node, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations, each at a node of the tree as it then is."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(("swap", "delete", "duplicate", "label", "huge")))
        pool = {"swap": SWAPS, "delete": (None,), "duplicate": (None,), "label": UNKNOWN_LABELS, "huge": HUGE}[kind]
        value = draw(st.sampled_from(pool))
        if not path:
            if kind != "duplicate":
                doc = {} if kind == "delete" else copy.deepcopy(value)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "duplicate":
            if isinstance(parent, list):
                parent.append(copy.deepcopy(parent[path[-1]]))
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def test_mutation_inputs_are_accepted():
    for sub, query in QUERIES:
        assert _run([sub, "--query", json.dumps(query)]) == 0, (sub, query)
    assert {q["row"]["type"] for q in ROW_QUERIES} == {
        "steinberg-S4", "orthogonal-S2", "4dim", "pair-supercuspidal",
        "double-supercuspidal", "double-steinberg", "steinberg-pair", "sc-plus-S2",
    }
    assert {(q["group"], q["parabolic"]) for q in REDUCE_QUERIES} == set(REDUCTIONS)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(range(len(QUERIES))).flatmap(lambda i: st.tuples(st.just(QUERIES[i][0]), mutated(QUERIES[i][1]))))
def test_mutated_queries_exit_typed(case):
    sub, query = case
    assert _run([sub, "--query", json.dumps(query)]) in EXIT_CODES, (sub, query)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated-scenarios")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(range(len(FIXTURE_DOCS))).flatmap(lambda i: st.tuples(st.just(i), mutated(FIXTURE_DOCS[i][1]))),
    st.sampled_from(SCENARIO_COMMANDS),
)
def test_mutated_fixtures_exit_typed(scratch_dir, case, command):
    i, doc = case
    name, original = FIXTURE_DOCS[i]
    path = scratch_dir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [*command, "--scenario", str(path)]
    if command == ["packet"]:
        argv += ["--place", original["places"][0]["id"]]
    assert _run(argv) in EXIT_CODES, (argv, doc)
