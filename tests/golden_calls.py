"""The CLI calls whose stdout is pinned under tests/golden/.

Scenario calls are named ``<fixture>.<variant>.<ext>`` (the generated
scenarios under tests/scenarios/ likewise, for the variants listed in
``GENERATED``), packet tables
``<fixture>.packet-<place>.<ext>``, and calls without a scenario
``<name>.<ext>``; ``.json`` files hold the ``--format json`` output and
``.txt`` files the ``--format text`` output.  Kept free of pytest so that
``tools/check_python.py`` can replay them on interpreters without it.

Beside the files, ``RESIDUAL_WIDE_SHA256`` pins one digest of ``residual``
output per seed on the 100 inputs of the benchmark's residual-wide workload
of seeds 1 and 2 (see ``residual_wide_digest``), too many outputs to keep
as files; the two seeds mix the place kinds differently.
"""

import hashlib
import importlib.util
import json
import os
import tempfile

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")
SCENARIOS = os.path.join(HERE, "scenarios")

FIXTURE_NAMES = ("hps", "hps_degenerate", "principal", "sk", "sk_steinberg", "soudry", "tempered")

FORMATS = {"json": "json", "txt": "text"}

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
    "validate.txt": ["validate", "--format", "text"],
    "classify.txt": ["classify", "--format", "text"],
    "component-group.txt": ["component-group", "--format", "text"],
    "enumerate.txt": ["enumerate", "--format", "text"],
    "residual.txt": ["residual", "--format", "text"],
    "self-test.txt": ["self-test", "--format", "text"],
}

# generated scenarios pinned beside the fixtures, with their variants:
# residual_wide_1_06 is perfbench.scengen.residual_scenarios(1)[6], the
# one input with constituents of all six residual families (8 B-pr,
# 28 B-HPS, 1 P2, 2 P1-pr, 4 P1-SK and 6 P1-HPS); escaped_names is the sk
# fixture with place ids, element, datum and tag names holding '"', '\\',
# 'é' and U+0001, which the JSON form must escape as json.dumps does
GENERATED = {
    "residual_wide_1_06": ("residual-verbose.json", "residual-verbose.txt"),
    "escaped_names": ("enumerate.json", "enumerate-verbose.json", "enumerate.txt", "enumerate-verbose.txt"),
}

# calls that take no scenario, by stem: the table export and the accepted
# queries of tests/test_scenario_cli.py; each is pinned in both formats
SCENARIO_FREE_CALLS = {
    "export-tables": ["export-tables"],
    "correspond": [
        "correspond",
        "--query",
        '{"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}}',
    ],
    "reduce": [
        "reduce",
        "--query",
        '{"group": "Mp4", "parabolic": "P1", "chi": {"class": "u"}, "s": "1/2",'
        ' "inner": {"type": "mp-steinberg", "class": "u"}}',
    ],
    "ktype-degree": [
        "ktype",
        "--query",
        '{"op": "degree", "p": 2, "q": 1, "a": [0], "eps": -1, "b": [], "delta": -1}',
    ],
    "ktype-catalog": [
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


SCENARIO_FREE = [f"{stem}.{ext}" for stem in SCENARIO_FREE_CALLS for ext in FORMATS]

GENERATED_GOLDENS = [f"{stem}.{variant}" for stem, variants in GENERATED.items() for variant in variants]

PACKETS = [(fixture, pid) for fixture in FIXTURE_NAMES for pid in _places(fixture)]


def golden_calls():
    """Every golden file name with the CLI arguments that produce it."""
    calls = {}
    for fixture in FIXTURE_NAMES:
        for variant, argv in VARIANTS.items():
            calls[f"{fixture}.{variant}"] = argv + ["--scenario", _scenario(fixture)]
    for stem, variants in GENERATED.items():
        for variant in variants:
            calls[f"{stem}.{variant}"] = VARIANTS[variant] + ["--scenario", os.path.join(SCENARIOS, f"{stem}.json")]
    for ext, fmt in FORMATS.items():
        for fixture, pid in PACKETS:
            argv = ["packet", "--place", pid, "--format", fmt, "--scenario", _scenario(fixture)]
            calls[f"{fixture}.packet-{pid}.{ext}"] = argv
        for stem, argv in SCENARIO_FREE_CALLS.items():
            calls[f"{stem}.{ext}"] = argv + ["--format", fmt]
    return calls


def load_scengen():
    """perfbench/scengen.py, the benchmark's scenario generator, loaded from its file."""
    path = os.path.join(HERE, "..", "perfbench", "scengen.py")
    spec = importlib.util.spec_from_file_location("perfbench_scengen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RESIDUAL_WIDE_FORMATS = (["--format", "json"], ["--format", "text", "--verbose"])

# by seed; seed 1 was computed before residual built and rendered each
# descriptor once per distinct value, and seed 2 before residual shared
# local work across places of one kind, changes that had to leave every
# output byte as it was
RESIDUAL_WIDE_SHA256 = {
    1: "59c68a2506bf5a76b732e73da27c66a6565747c3b317d78b46771a29897da6c0",
    2: "f95dd794eccb287d9e8940b54d55772944542b67e700cf0b908b9a3c14537453",
}


def residual_wide_digest(run, seed: int = 1) -> str:
    """SHA-256 of ``residual`` on ``scengen.residual_scenarios(seed)``, in JSON and verbose text.

    ``run(argv)`` calls the CLI and returns its exit code and stdout bytes;
    each call adds its input index, format, exit code and stdout to the digest.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (_, doc) in enumerate(load_scengen().residual_scenarios(seed)):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for fmt in RESIDUAL_WIDE_FORMATS:
                code, out = run(["residual", "--scenario", path, *fmt])
                digest.update(f"{i} {' '.join(fmt)} exit {code}\n".encode())
                digest.update(out)
    return digest.hexdigest()
