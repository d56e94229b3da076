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
``SCHEMA_ERROR_SHA256`` pins the exit code and stderr of ``validate`` on
some 2,800 malformed copies of the fixtures (see ``schema_error_digest``):
every error's exit code, JSON path and message, and which of two faults
is reported first.
``solved_coset_size`` counts a parameter's multiplicity-one tuples with
``chargroups.solve_affine``, the reference for ``multiplicity.coset_size``.
"""

import copy
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


# ---------------------------------------------------------------------------
# malformed scenarios

def _set_local(pid, key, value):
    return lambda d: d["cuspidal"][0]["local"][pid].__setitem__(key, value)


# deeper than json.loads parses, on any interpreter
DEEP = 100_000

SC1 = {"shape": "irreducible-symplectic", "tag": "sc1", "eps": -1, "eps_twists": {"u": 1, "p": 1, "up": -1}}
GL4_IRREDUCIBLE = {"shape": "gl4-irreducible", "tag": "t4", "eps": 1}


def _gl4_split(parts):
    """Make the parameter of tempered.json one GL(4) datum split into ``parts`` at v1; it is valid otherwise."""
    local = {"v1": {"shape": "gl4-split", "parts": parts}, "v2": GL4_IRREDUCIBLE}
    rho4 = {"name": "rho4", "gl_rank": 4, "duality": "symplectic", "global_root": -1, "local": local}
    return lambda d: (d["cuspidal"].append(rho4), d["parameter"].__setitem__("summands", [["rho4", 1]]))


def _nested_split(depth):
    """A gl4-split whose second part is a gl4-split, ``depth`` levels deep."""
    shape = SC1
    for _ in range(depth):
        shape = {"shape": "gl4-split", "parts": [SC1, shape]}
    return shape


# (fixture, mutation, JSON path the error must name); the first six are the
# single mutations of sk.json that used to end in a traceback
SCHEMA_MUTATIONS = {
    "kappa_not_int": ("sk.json", _set_local("v2", "kappa", "two"), "$.cuspidal[0].local.v2.kappa"),
    "gl_rank_not_int": (
        "sk.json",
        lambda d: d["cuspidal"][0].__setitem__("gl_rank", "two"),
        "$.cuspidal[0].gl_rank",
    ),
    "summands_not_list": ("sk.json", lambda d: d["parameter"].__setitem__("summands", 5), "$.parameter.summands"),
    "s_places_not_list": (
        "sk.json",
        lambda d: d.__setitem__("mp2_weil", [{"name": "piw", "chi": "t", "s_places": 5}]),
        "$.mp2_weil[0].s_places",
    ),
    "eps_twists_not_object": ("sk.json", _set_local("v1", "eps_twists", [1]), "$.cuspidal[0].local.v1.eps_twists"),
    "twisted_root_unknown_element": (
        "sk.json",
        lambda d: d["cuspidal"][0]["twisted_roots"].__setitem__("zz", 1),
        "$.cuspidal[0].twisted_roots.zz",
    ),
    "s_places_bare_string": (
        "sk.json",
        lambda d: d.__setitem__("mp2_weil", [{"name": "piw", "chi": "t", "s_places": "v2v3"}]),
        "$.mp2_weil[0].s_places",
    ),
    "central_char_unknown_element": (
        "soudry.json",
        lambda d: d["cuspidal"][0].__setitem__("central_char", "zz"),
        "$.cuspidal[0].central_char",
    ),
    "dihedral_string": (
        "soudry.json",
        lambda d: d["cuspidal"][0].__setitem__("dihedral", "false"),
        "$.cuspidal[0].dihedral",
    ),
    # the escapes below loaded, and ended in a raw ValueError or a wrong
    # result later; load now refuses them
    "steinberg_unknown_class": ("sk_steinberg.json", _set_local("v1", "class", "zz9"), "$.cuspidal[0].local.v1.class"),
    "quadratic_pair_unknown_class": ("soudry.json", _set_local("v1", "b", "zz9"), "$.cuspidal[0].local.v1.b"),
    "shape_tag_null": ("sk.json", _set_local("v1", "tag", None), "$.cuspidal[0].local.v1.tag"),
    "global_root_true": (
        "sk.json",
        lambda d: d["cuspidal"][0].__setitem__("global_root", True),
        "$.cuspidal[0].global_root",
    ),
    "global_root_float": (
        "sk.json",
        lambda d: d["cuspidal"][0].__setitem__("global_root", -1.0),
        "$.cuspidal[0].global_root",
    ),
    # names and labels must be JSON strings; those in LOAD_ESCAPES loaded as
    # their str(): null as the name "None", the number 1 as the class or
    # element "1"; true passed as the index d = 1 (printed as "S True") and
    # as version 1
    "datum_and_summand_name_null": (
        "sk.json",
        lambda d: (d["cuspidal"][0].__setitem__("name", None), d["parameter"]["summands"][0].__setitem__(0, None)),
        "$.cuspidal[0].name",
    ),
    "summand_name_number": (
        "sk.json",
        lambda d: d["parameter"]["summands"][1].__setitem__(0, 1),
        "$.parameter.summands[1][0]",
    ),
    "summand_index_true": (
        "sk.json",
        lambda d: d["parameter"]["summands"][0].__setitem__(1, True),
        "$.parameter.summands[0]",
    ),
    "version_true": ("sk.json", lambda d: d.__setitem__("version", True), "$.version"),
    "element_name_null": ("sk.json", lambda d: d["elements"][0].__setitem__("name", None), "$.elements[0].name"),
    "element_class_number": (
        "sk.json",
        lambda d: d["elements"][0]["classes"].__setitem__("v1", 1),
        "$.elements[0].classes.v1",
    ),
    "place_id_number": ("sk.json", lambda d: d["places"][0].__setitem__("id", 1), "$.places[0].id"),
    "place_kind_null": ("sk.json", lambda d: d["places"][0].__setitem__("kind", None), "$.places[0].kind"),
    "duality_null": ("sk.json", lambda d: d["cuspidal"][0].__setitem__("duality", None), "$.cuspidal[0].duality"),
    "central_char_null": (
        "soudry.json",
        lambda d: d["cuspidal"][0].__setitem__("central_char", None),
        "$.cuspidal[0].central_char",
    ),
    "mp2_weil_name_null": (
        "sk.json",
        lambda d: d.__setitem__("mp2_weil", [{"name": None, "chi": "t", "s_places": ["v2", "v3"]}]),
        "$.mp2_weil[0].name",
    ),
    "mp2_weil_chi_number": (
        "sk.json",
        lambda d: d.__setitem__("mp2_weil", [{"name": "piw", "chi": 1, "s_places": ["v2", "v3"]}]),
        "$.mp2_weil[0].chi",
    ),
    "s_places_item_number": (
        "sk.json",
        lambda d: d.__setitem__("mp2_weil", [{"name": "piw", "chi": "t", "s_places": ["v2", 3]}]),
        "$.mp2_weil[0].s_places[1]",
    ),
    # an id or name given twice
    "duplicate_place_id": ("sk.json", lambda d: d["places"].append({"id": "v2", "kind": "real"}), "$.places[3].id"),
    "duplicate_element_name": (
        "sk.json",
        lambda d: d["elements"].append(copy.deepcopy(d["elements"][0])),
        "$.elements[1].name",
    ),
    "duplicate_datum_name": (
        "sk.json",
        lambda d: d["cuspidal"].append(copy.deepcopy(d["cuspidal"][0])),
        "$.cuspidal[1].name",
    ),
    "duplicate_mp2_weil_name": (
        "hps.json",
        lambda d: d["mp2_weil"].append(copy.deepcopy(d["mp2_weil"][0])),
        "$.mp2_weil[1].name",
    ),
    # S(pi) is a set, so a place listed twice is refused rather than merged
    "s_places_item_repeated": (
        "hps.json",
        lambda d: d["mp2_weil"][0].__setitem__("s_places", ["v1", "v1", "v3", "v3"]),
        "$.mp2_weil[0].s_places[1]",
    ),
    # a gl4-split has two 2-dim parts; these loaded (the deep one ended in a
    # RecursionError traceback)
    "gl4_split_three_parts": ("tempered.json", _gl4_split([SC1, SC1, SC1]), "$.cuspidal[2].local.v1.parts"),
    "gl4_split_one_part": ("tempered.json", _gl4_split([SC1]), "$.cuspidal[2].local.v1.parts"),
    "gl4_split_gl4_part": ("tempered.json", _gl4_split([SC1, GL4_IRREDUCIBLE]), "$.cuspidal[2].local.v1.parts[1]"),
    "gl4_split_nested": ("tempered.json", _gl4_split([SC1, _nested_split(1)]), "$.cuspidal[2].local.v1.parts[1]"),
    "gl4_split_nested_deeply": (
        "tempered.json",
        _gl4_split([SC1, _nested_split(450)]),
        "$.cuspidal[2].local.v1.parts[1]",
    ),
    # a mutation returning text writes that text: nesting this deep ended in
    # json's RecursionError and a traceback (900 levels was a schema error)
    "places_nested_too_deeply": ("sk.json", lambda d: '{"places": ' + "[" * DEEP + "]" * DEEP + "}", "$"),
    # an entry that must be an object and is not
    "scenario_not_object": ("sk.json", lambda d: "[]", "$"),
    "place_not_object": ("sk.json", lambda d: d["places"].__setitem__(0, 5), "$.places[0]"),
    "element_not_object": ("sk.json", lambda d: d["elements"].__setitem__(0, 5), "$.elements[0]"),
    "datum_not_object": ("sk.json", lambda d: d["cuspidal"].__setitem__(0, 5), "$.cuspidal[0]"),
    "local_not_object": ("sk.json", lambda d: d["cuspidal"][0].__setitem__("local", 5), "$.cuspidal[0].local"),
    "shape_not_object": ("sk.json", lambda d: d["cuspidal"][0]["local"].__setitem__("v1", 5), "$.cuspidal[0].local.v1"),
    "mp2_weil_not_object": ("sk.json", lambda d: d.__setitem__("mp2_weil", [5]), "$.mp2_weil[0]"),
    "parameter_not_object": ("sk.json", lambda d: d.__setitem__("parameter", 5), "$.parameter"),
    # json refuses an integer of more than 4,300 digits with a plain ValueError
    "version_too_long": ("sk.json", lambda d: '{"version": ' + "1" * 5001 + "}", "$"),
}
DUPLICATES = ("duplicate_place_id", "duplicate_element_name", "duplicate_datum_name", "duplicate_mp2_weil_name")
LOAD_ESCAPES = (
    "steinberg_unknown_class",
    "quadratic_pair_unknown_class",
    "shape_tag_null",
    "global_root_true",
    "global_root_float",
    "datum_and_summand_name_null",
    "element_name_null",
    "element_class_number",
    "mp2_weil_name_null",
    "mp2_weil_chi_number",
    "s_places_item_repeated",
    "summand_index_true",
    "version_true",
    "gl4_split_three_parts",
    "gl4_split_one_part",
    "gl4_split_gl4_part",
    "gl4_split_nested",
    "gl4_split_nested_deeply",
)


def mutated_text(name: str) -> str:
    """The text of SCHEMA_MUTATIONS[name]'s fixture, mutated, or the text its mutation returns."""
    fixture, mutate, _ = SCHEMA_MUTATIONS[name]
    with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as fh:
        data = json.load(fh)
    text = mutate(data)
    return text if isinstance(text, str) else json.dumps(data)


# what a malformed copy of a fixture puts in place of the value at one JSON path
SCHEMA_ERROR_VALUES = ("x", 1.5, True, None, [], {}, -2)
_DELETE = object()


def _json_paths(value, path=()):
    """The path of every value below ``value``, in document order, each before the paths below it."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _json_paths(child, (*path, key))


def _shown_path(path) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _edit(doc, path, value) -> None:
    """Put ``value`` at ``path`` of ``doc``, or delete the key there when ``value`` is ``_DELETE``."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def schema_error_cases():
    """(name, text) of every malformed scenario ``schema_error_digest`` reads.

    Per fixture, in document order: the value at each JSON path replaced
    by each of ``SCHEMA_ERROR_VALUES``, and each object key deleted; then
    two faults at once, the value at the i-th of the n paths made "x" and
    the one at the (i + n // 2)-th (cyclically) made null, where neither
    path lies under the other, so the first error found is pinned too.
    Last the ``SCHEMA_MUTATIONS`` cases, by name.
    """
    for fixture in FIXTURE_NAMES:
        with open(_scenario(fixture), encoding="utf-8") as fh:
            doc = json.load(fh)
        paths = list(_json_paths(doc))
        for path in paths:
            edits = SCHEMA_ERROR_VALUES + ((_DELETE,) if isinstance(path[-1], str) else ())
            for value in edits:
                mutated = copy.deepcopy(doc)
                _edit(mutated, path, value)
                shown = "deleted" if value is _DELETE else f"= {json.dumps(value)}"
                yield f"{fixture} {_shown_path(path)} {shown}", json.dumps(mutated)
        for i, first in enumerate(paths):
            second = paths[(i + len(paths) // 2) % len(paths)]
            if first[: len(second)] == second or second[: len(first)] == first:
                continue
            mutated = copy.deepcopy(doc)
            _edit(mutated, first, "x")
            _edit(mutated, second, None)
            yield f"{fixture} {_shown_path(first)} = \"x\", {_shown_path(second)} = null", json.dumps(mutated)
    for name in SCHEMA_MUTATIONS:
        yield name, mutated_text(name)


# computed before the scenario loader and validator stopped formatting paths, scanning names and parsing
# rationals through Fraction's pattern on the success path
SCHEMA_ERROR_SHA256 = "835f011fbc28b729088b1b13e3392b7ddc10c0c1df7a77edc573df73980c69aa"


def schema_error_digest(run) -> str:
    """SHA-256 of ``validate --format json`` on every case of ``schema_error_cases``.

    ``run(argv)`` calls the CLI and returns its exit code and stderr bytes;
    each call adds the case's name, the exit code and stderr to the digest.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "malformed.json")
        for name, text in schema_error_cases():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, err = run(["validate", "--scenario", path, "--format", "json"])
            digest.update(f"{name} exit {code}\n".encode())
            digest.update(err)
    return digest.hexdigest()
