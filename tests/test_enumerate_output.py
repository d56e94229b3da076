"""The enumerate output against the same report built the slow way.

``cli.cmd_enumerate`` renders each (place, character index) fragment once
and joins every constituent's JSON and text lines from its index tuple.
Here the expected stdout is built without that: a dict per constituent of
``enumerate_constituents``, labelled by ``sign_label`` and ``render``, then
encoded by ``json.dumps(..., indent=2, ensure_ascii=False)`` or written as
the text form's lines.  The two must agree byte for byte on generated
scenarios of all five families, on the fixtures, on a parameter with no
constituent and on names that need escaping, plain and ``--verbose``.

The last test bounds the memory the output costs: ``enumerate`` on the
benchmark's memory input holds its 4.4 MB of JSON about once at its peak.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from golden_calls import (
    FIXTURE_NAMES,
    FIXTURES,
    MEMORY_EXCESS_BOUND,
    MEMORY_SLOT_SHA256,
    SCENARIOS,
    load_scengen,
    memory_peaks,
)
from mp4spectrum import cli
from mp4spectrum.cli import main
from mp4spectrum.descriptors import render, sign_label
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.parameters import ParamType, classify
from mp4spectrum.scenario import load_scenario, scenario_from_dict

FAMILIES = ("principal", "saito-kurokawa", "howe-ps", "soudry", "tempered")
DRAWS_PER_FAMILY = 4

# the parameter of test_multiplicity's empty-enumeration case: its one
# multiplicity-one tuple has a vanishing member
EMPTY = {
    "version": 1,
    "places": [{"id": "v1", "kind": "nonarch-odd-3mod4"}],
    "elements": [{"name": "t", "classes": {"v1": "u"}}],
    "cuspidal": [
        {
            "name": "rho",
            "gl_rank": 2,
            "duality": "symplectic",
            "global_root": -1,
            "twisted_roots": {"t": -1},
            "local": {"v1": {"shape": "steinberg", "class": "u", "eps": -1, "eps_twists": {"u": -1, "p": 1, "up": 1}}},
        }
    ],
    "parameter": {"summands": [["rho", 1], ["t", 2]]},
}


def _generated():
    """(name, document) pairs: DRAWS_PER_FAMILY enumerate-scaled draws of each family, 2-5 places."""
    scengen = load_scengen()
    rng = random.Random("enumerate-output")
    docs = []
    for family in FAMILIES:
        drawn = 0
        while drawn < DRAWS_PER_FAMILY:
            n = rng.randrange(2, 6)
            doc = scengen._enumerate_draw(rng, family, n, rng.randrange(n, n + 3))
            if doc is not None:
                docs.append((f"{family}-{drawn}", doc))
                drawn += 1
    return docs


def _expected(path: str, verbose: bool, fmt: str) -> str:
    sc = load_scenario(path)
    sc.validate()
    shown = [
        {
            "eta": {pid: sign_label(ch.values) for pid, ch in c.eta.components},
            "members": {pid: render(d) for pid, d in c.local_members},
            "vanishing": c.has_zero_member,
        }
        for c in enumerate_constituents(sc.parameter, sc.places, include_vanishing=verbose)
    ]
    count = sum(not entry["vanishing"] for entry in shown)
    if fmt == "json":
        data = {"command": "enumerate", "count": count, "constituents": shown}
        return json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    lines = [f"{count} constituents"]
    for entry in shown:
        flag = "  [vanishing member]" if entry["vanishing"] else ""
        lines.append("  " + " ".join(f"{pid}:{lab}" for pid, lab in sorted(entry["eta"].items())) + flag)
        if verbose:
            lines += [f"      {pid}: {member}" for pid, member in sorted(entry["members"].items())]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scenario_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("enumerate-output")
    paths = {name: os.path.join(FIXTURES, f"{name}.json") for name in FIXTURE_NAMES}
    paths["escaped_names"] = os.path.join(SCENARIOS, "escaped_names.json")
    for name, doc in [*_generated(), ("empty", EMPTY)]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_generated_scenarios_cover_the_families():
    drawn = _generated()
    assert len(drawn) == len(FAMILIES) * DRAWS_PER_FAMILY
    assert {classify(scenario_from_dict(doc).parameter) for _, doc in drawn} == set(ParamType)


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("verbose", (False, True), ids=("plain", "verbose"))
def test_enumerate_output_equals_the_encoded_constituent_list(scenario_paths, verbose, fmt, capsys):
    capsys.readouterr()
    for name, path in scenario_paths.items():
        argv = ["enumerate", *(["--verbose"] if verbose else []), "--format", fmt, "--scenario", path]
        assert main(argv) == 0, name
        assert capsys.readouterr().out == _expected(path, verbose, fmt), name


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("verbose", (False, True), ids=("plain", "verbose"))
def test_enumerate_lists_the_tuples_once(scenario_paths, verbose, fmt, monkeypatch, capsys):
    # a text enumerate listed them twice: once as the JSON pieces, read only for the count
    calls = []
    listed = cli.listed_tuples
    monkeypatch.setattr(cli, "listed_tuples", lambda *args: calls.append(args) or listed(*args))
    for name, path in scenario_paths.items():
        calls.clear()
        argv = ["enumerate", *(["--verbose"] if verbose else []), "--format", fmt, "--scenario", path]
        assert main(argv) == 0, name
        assert len(calls) == 1, name
    capsys.readouterr()


def test_empty_enumeration(scenario_paths, capsys):
    capsys.readouterr()
    assert main(["enumerate", "--format", "json", "--scenario", scenario_paths["empty"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"command": "enumerate", "count": 0, "constituents": []}
    assert main(["enumerate", "--verbose", "--format", "json", "--scenario", scenario_paths["empty"]]) == 0
    listed = json.loads(capsys.readouterr().out)["constituents"]
    assert len(listed) == 1 and listed[0]["vanishing"] is True


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from Linux's /proc/self/status")
def test_enumerate_peak_holds_its_output_about_once():
    # joined twice and encoded whole, the output cost 2.15 times its size (9.3 MB over 16.8 MB for 4.4 MB)
    base_kib, peak_kib, out = memory_peaks()
    assert hashlib.sha256(out).hexdigest() == MEMORY_SLOT_SHA256
    assert (peak_kib - base_kib) * 1024 < MEMORY_EXCESS_BOUND * len(out)
