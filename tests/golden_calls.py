"""The CLI calls whose stdout is pinned under tests/golden/.

Scenario calls are named ``<fixture>.<variant>.<format>``, packet tables
``<fixture>.packet-<place>.json``, and calls without a scenario
``<name>.json``.  Kept free of pytest so that ``tools/check_python.py``
can replay them on interpreters without it.
"""

import json
import os

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")

FIXTURE_NAMES = ("hps", "hps_degenerate", "principal", "sk", "sk_steinberg", "soudry", "tempered")

VARIANTS = {
    "enumerate.json": ["enumerate", "--format", "json"],
    "enumerate-verbose.json": ["enumerate", "--verbose", "--format", "json"],
    "enumerate-verbose.txt": ["enumerate", "--verbose", "--format", "text"],
    "component-group.json": ["component-group", "--format", "json"],
    "residual-verbose.json": ["residual", "--verbose", "--format", "json"],
    "residual-verbose.txt": ["residual", "--verbose", "--format", "text"],
    "classify.json": ["classify", "--format", "json"],
    "validate.json": ["validate", "--format", "json"],
    "self-test.json": ["self-test", "--format", "json"],
}

# calls that take no scenario: the table export and the accepted queries
# of tests/test_scenario_cli.py
SCENARIO_FREE = {
    "export-tables.json": ["export-tables"],
    "correspond.json": [
        "correspond",
        "--query",
        '{"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}}',
    ],
    "reduce.json": [
        "reduce",
        "--query",
        '{"group": "Mp4", "parabolic": "P1", "chi": {"class": "u"}, "s": "1/2",'
        ' "inner": {"type": "mp-steinberg", "class": "u"}}',
    ],
    "ktype-degree.json": [
        "ktype",
        "--query",
        '{"op": "degree", "p": 2, "q": 1, "a": [0], "eps": -1, "b": [], "delta": -1}',
    ],
    "ktype-catalog.json": [
        "ktype",
        "--query",
        '{"op": "catalog", "query": {"type": "discrete", "a": "5/2", "b": "3/2", "eps1": 1, "eps2": 1}}',
    ],
}


def _scenario(fixture):
    return os.path.join(FIXTURES, f"{fixture}.json")


def _places(fixture):
    with open(_scenario(fixture), encoding="utf-8") as fh:
        return [p["id"] for p in json.load(fh)["places"]]


PACKETS = [(fixture, pid) for fixture in FIXTURE_NAMES for pid in _places(fixture)]


def golden_calls():
    """Every golden file name with the CLI arguments that produce it."""
    calls = {}
    for fixture in FIXTURE_NAMES:
        for variant, argv in VARIANTS.items():
            calls[f"{fixture}.{variant}"] = argv + ["--scenario", _scenario(fixture)]
    for fixture, pid in PACKETS:
        argv = ["packet", "--place", pid, "--format", "json", "--scenario", _scenario(fixture)]
        calls[f"{fixture}.packet-{pid}.json"] = argv
    for name, argv in SCENARIO_FREE.items():
        calls[name] = argv + ["--format", "json"]
    return calls
