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
of seeds 1 to 4 (see ``residual_wide_digest``), too many outputs to keep
as files; the seeds mix the place kinds differently.
``ENUMERATE_SCALED_SHA256`` pins ``enumerate`` the same way on the 100
inputs of the enumerate-scaled workload of seeds 1 and 2 (see
``enumerate_scaled_digest``), and ``PACKET_SHA256`` pins ``packet`` at
every place of its 40 Soudry and tempered inputs of seed 1 (see
``packet_digest``).  ``memory_peaks``
measures the peak memory of ``enumerate`` on the benchmark's memory input
of seed 1 (``MEMORY_SCENARIO``), whose 4.4 MB JSON output
``MEMORY_SLOT_SHA256`` pins.
``solved_coset_size`` counts a parameter's multiplicity-one tuples with
``chargroups.solve_affine``, the reference for ``multiplicity.coset_size``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
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


def load_perfbench(name: str):
    """perfbench/<name>.py, loaded from its file."""
    path = os.path.join(HERE, "..", "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_scengen():
    """perfbench/scengen.py, the benchmark's scenario generator, loaded from its file."""
    return load_perfbench("scengen")


RESIDUAL_WIDE_FORMATS = (["--format", "json"], ["--format", "text", "--verbose"])

# by seed; seed 1 was computed before residual built and rendered each
# descriptor once per distinct value, seed 2 before residual shared local
# work across places of one kind, seed 3 before residual built packet
# members one character at a time, and seed 4 before residual's JSON array
# was joined from encoded lines, changes that had to leave every output
# byte as it was
RESIDUAL_WIDE_SHA256 = {
    1: "59c68a2506bf5a76b732e73da27c66a6565747c3b317d78b46771a29897da6c0",
    2: "f95dd794eccb287d9e8940b54d55772944542b67e700cf0b908b9a3c14537453",
    3: "9328f4dfb6389709f39ccc9fd61d05234704faccb4c1d96aca3af4c45b7328f4",
    4: "69b204b2eeda847f27b1b7919ff988f668071d9b392cabc9d92af90d287140fa",
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


ENUMERATE_SCALED_FORMATS = (["--format", "json"], ["--format", "json", "--verbose"])

# by seed; computed before enumerate listed its tuples in one pruned walk over
# the places instead of a span of the affine solutions sorted and filtered
ENUMERATE_SCALED_SHA256 = {
    1: "55905b9e191ef2024ab81fdf70f88ad2a9cd947fb023690c2f296484a6c9082f",
    2: "b38f1be119ca2089596685488125daef14c9d577b1704aed594ecc33617a2d12",
}


def enumerate_scaled_scenarios(seed: int = 1) -> list:
    """The documents of ``scengen.enumerate_scenarios(seed)``, drawn as the benchmark's enumerate-scaled
    workload draws them, against the character sums of ``oracle``."""
    oracle = load_perfbench("oracle")
    from mp4spectrum.scenario import scenario_from_dict

    def counts(doc):
        sc = scenario_from_dict(doc)
        sc.validate()
        return tuple(oracle.character_sum_count(sc.parameter, sc.places, nonzero) for nonzero in (False, True))

    return [doc for _, doc in load_scengen().enumerate_scenarios(seed, counts)]


def solved_coset_size(eps_bits: int, locals_) -> int:
    """The multiplicity-one tuples, vanishing ones included, counted by solve_affine: 0 or 2^(kernel rank).

    The unknowns are the concatenated local character masks; there is one
    parity row per global generator (right-hand side its eps bit) and one
    per local relation (right-hand side 0).
    """
    from mp4spectrum.chargroups import solve_affine

    images = [0] * len(locals_[0].iota.images)
    relations, width = [], 0
    for ld in reversed(locals_):
        images = [row | (img << width) for row, img in zip(images, ld.iota.images)]
        relations += [r << width for r in ld.group.relations]
        width += len(ld.group.basis)
    solved = solve_affine(images + relations, eps_bits << len(relations), width)
    return 0 if solved is None else 1 << len(solved[1])


def enumerate_scaled_digest(run, seed: int = 1) -> str:
    """SHA-256 of ``enumerate`` on ``enumerate_scaled_scenarios(seed)``, in JSON with and without ``--verbose``.

    ``run`` and the digest are as in ``residual_wide_digest``.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, doc in enumerate(enumerate_scaled_scenarios(seed)):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for fmt in ENUMERATE_SCALED_FORMATS:
                code, out = run(["enumerate", "--scenario", path, *fmt])
                digest.update(f"{i} {' '.join(fmt)} exit {code}\n".encode())
                digest.update(out)
    return digest.hexdigest()


# the enumerate-scaled families whose packets packet_digest reads; computed before
# every tempered local group and map became a shared constant
PACKET_FAMILIES = ("soudry", "tempered")
PACKET_SHA256 = "363ac68b837dc385dabe5f3f090888068869720d17fc45961ff75106bdbd7eea"


def packet_digest(run, seed: int = 1) -> str:
    """SHA-256 of ``packet --format json`` at every place of the PACKET_FAMILIES inputs of
    ``enumerate_scaled_scenarios(seed)``.

    ``run`` and the digest are as in ``residual_wide_digest``, each call adding its place id too.
    """
    scengen = load_scengen()
    families = [slot[0] for slot in scengen.ENUMERATE_SLOTS for _ in range(scengen.ENUMERATE_DRAWS)]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (family, doc) in enumerate(zip(families, enumerate_scaled_scenarios(seed))):
            if family not in PACKET_FAMILIES:
                continue
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for place in doc["places"]:
                code, out = run(["packet", "--place", place["id"], "--format", "json", "--scenario", path])
                digest.update(f"{i} {place['id']} exit {code}\n".encode())
                digest.update(out)
    return digest.hexdigest()


# perfbench/scengen.memory_scenario(1, ...): a principal parameter at 13 places with 2^12 constituents
MEMORY_SCENARIO = os.path.join(SCENARIOS, "memory_slot_1.json")
MEMORY_SLOT_SHA256 = "cdacb75ecb365178d988d773e3ce0fc5fec75541e114a1f5c65a8b5ad53c3ac6"
# enumerate --format json on MEMORY_SCENARIO raises the peak RSS of its process above the peak of the import by
# under this multiple of its output: the output held once as text, plus a pointer per piece it is joined from
# (1.18 on Python 3.10 and 3.11, 1.21-1.25 on 3.12 and 3.13); 1.37 while the listed index tuples and a second
# list of the pieces were held too, 2.2 when the output was held joined twice and encoded whole
MEMORY_EXCESS_BOUND = 1.35

# a child that reads its peak RSS after importing the CLI and again after running it on its arguments, and prints
# both in KiB to stderr: the VmHWM of Linux's /proc/self/status (ru_maxrss would carry the RSS of the process that
# forked it)
_PEAK_PROBE = """
import sys
def peak():
    return next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:"))
from mp4spectrum.cli import main
imported = peak()
code = main(sys.argv[1:])
sys.stdout.flush()
print(imported, peak(), file=sys.stderr)
sys.exit(code)
"""


def memory_peaks(python: str = sys.executable) -> tuple:
    """(peak after the import, peak after enumerate, both in KiB; its stdout) on MEMORY_SCENARIO, in one child.

    Linux only: the peaks are read from /proc/self/status.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    argv = ["enumerate", "--format", "json", "--scenario", MEMORY_SCENARIO]
    proc = subprocess.run([python, "-c", _PEAK_PROBE, *argv], env=env, capture_output=True, check=True, timeout=60)
    imported, peak = map(int, proc.stderr.split()[-2:])
    return imported, peak, proc.stdout
