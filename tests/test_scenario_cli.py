"""Scenario loading, validation pipeline, and the CLI surface."""

import argparse
import contextlib
import copy
import gc
import io
import json
import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PTYPES, enumerate_draw
from golden_calls import (
    DEEP,
    DUPLICATES,
    GL4_IRREDUCIBLE,
    LOAD_ESCAPES,
    SCHEMA_MUTATIONS,
    load_scengen,
    mutated_text,
    solved_coset_size,
)
from mp4spectrum.cli import COMMANDS, OPTIONS, main, parse_args
from mp4spectrum.ktypes import HARMONICS_RANK_CAP
from mp4spectrum.multiplicity import ENUMERATE_LIMIT, prepare_local_data
from mp4spectrum.parameters import epsilon_tilde
from mp4spectrum.scenario import (
    DIGIT_MARGIN,
    ScenarioValidationError,
    SchemaError,
    load_scenario,
    scenario_from_dict,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

ALL_FIXTURES = [
    "principal.json",
    "sk.json",
    "sk_steinberg.json",
    "hps.json",
    "hps_degenerate.json",
    "soudry.json",
    "tempered.json",
]


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def fixture_data(name):
    with open(fixture_path(name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_bundled_fixtures_validate(name):
    sc = load_scenario(fixture_path(name))
    sc.validate()
    assert sc.reciprocity_report().ok


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict({"version": 1})
    assert "$.places" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict({"places": [{"id": "v1", "kind": "padic"}]})
    assert "$.places[0].kind" in str(exc.value)
    data = fixture_data("sk.json")
    bad = copy.deepcopy(data)
    bad["elements"][0]["classes"].pop("v2")
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict(bad)
    assert "classes" in str(exc.value)
    bad = copy.deepcopy(data)
    bad["cuspidal"][0]["local"]["v1"]["shape"] = "weird"
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict(bad)
    assert "$.cuspidal[0].local.v1" in str(exc.value)


def test_validation_rejects_sign_product_mismatch():
    data = copy.deepcopy(fixture_data("sk.json"))
    data["cuspidal"][0]["global_root"] = -1
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError) as exc:
        sc.validate()
    assert "root" in str(exc.value)


def _gl_rank_mismatch(gl_rank):
    """tempered.json with rho1 a GL(``gl_rank``) datum whose shapes have the other dimension."""
    data = copy.deepcopy(fixture_data("tempered.json"))
    rho1, rho2 = data["cuspidal"]
    if gl_rank == 4:
        # rho1's steinberg at v2 and rho2's at v1: each 2-dimensional, root numbers -1 * -1
        rho1["local"] = {"v1": rho2["local"]["v1"], "v2": rho1["local"]["v2"]}
        data["parameter"]["summands"] = [["rho1", 1]]
    else:
        rho1["local"] = {"v1": GL4_IRREDUCIBLE, "v2": GL4_IRREDUCIBLE}
    rho1["gl_rank"], rho1["twisted_roots"] = gl_rank, {}
    return data


def test_validation_rejects_shape_kind_mismatch(tmp_path, capsys):
    data = copy.deepcopy(fixture_data("sk.json"))
    data["cuspidal"][0]["local"]["v2"] = {
        "shape": "irreducible-symplectic",
        "tag": "x",
        "eps": 1,
        "eps_twists": {},
    }
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError):
        sc.validate()
    # a shape of another dimension than the datum's: each validated, the GL(4)
    # datum of 2-dim steinberg shapes was classified tempered and enumerated
    for gl_rank in (4, 2):
        with pytest.raises(ScenarioValidationError, match=rf"^datum 'rho1': .* place 'v1' .* on GL\({gl_rank}\)$"):
            scenario_from_dict(_gl_rank_mismatch(gl_rank)).validate()
        path = tmp_path / f"gl{gl_rank}.json"
        path.write_text(json.dumps(_gl_rank_mismatch(gl_rank)))
        for sub in ("validate", "classify", "enumerate"):
            assert main([sub, "--scenario", str(path)]) == 2
            assert capsys.readouterr().err.startswith("validation error: datum 'rho1': ")


def test_validation_rejects_central_char_mismatch():
    data = copy.deepcopy(fixture_data("soudry.json"))
    # chi_a chi_b at v1 must equal the central character class (u)
    data["cuspidal"][0]["local"]["v1"] = {"shape": "quadratic-pair", "a": "u", "b": "u"}
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError):
        sc.validate()


def _flip_mutations(data, count):
    """Single-flip mutations of one element class that break reciprocity.

    A flip replaces the class at one place by another class there; only
    flips whose difference pairs nontrivially with some declared element
    are violations, so candidates are filtered by re-running the check.
    """
    from mp4spectrum.fields import Place

    out = []
    places = {p["id"]: Place(p["id"], p["kind"]) for p in data["places"]}
    for ei, elem in enumerate(data.get("elements", [])):
        for pid, label in elem["classes"].items():
            place = places[pid]
            for other in place.square_classes():
                if other.label == label:
                    continue
                mutated = copy.deepcopy(data)
                mutated["elements"][ei]["classes"][pid] = other.label
                if not scenario_from_dict(mutated).reciprocity_report().ok:
                    out.append((f"{elem['name']}@{pid}->{other.label}", mutated))
                if len(out) >= count:
                    return out
    return out


def test_single_flip_mutations_rejected():
    mutations = []
    for name in ("sk.json", "hps.json", "soudry.json", "principal.json"):
        mutations.extend(_flip_mutations(fixture_data(name), 3))
    assert len(mutations) >= 10
    for tag, mutated in mutations[:12]:
        sc = scenario_from_dict(mutated)
        report = sc.reciprocity_report()
        assert not report.ok, f"mutation {tag} not caught"
        a, b, prod = report.violation
        assert prod == -1
        elem_name = tag.split("@")[0]
        assert elem_name in (a, b)


NOT_OBJECTS = tuple(name for name in SCHEMA_MUTATIONS if name.endswith("_not_object"))


def _mutated(name, tmp_path) -> str:
    """The path of a file holding SCHEMA_MUTATIONS[name]'s fixture, mutated, or the text its mutation returns."""
    path = tmp_path / "mutated.json"
    path.write_text(mutated_text(name))
    return str(path)


@pytest.mark.parametrize("name", sorted(SCHEMA_MUTATIONS))
def test_cli_schema_mutations_exit_typed(name, tmp_path, capsys):
    assert main(["enumerate", "--scenario", _mutated(name, tmp_path)]) in (2, 4)
    assert SCHEMA_MUTATIONS[name][2] in capsys.readouterr().err


@pytest.mark.parametrize("name", (*LOAD_ESCAPES, "places_nested_too_deeply"))
def test_cli_schema_escapes_fail_validate(name, tmp_path, capsys):
    # each of these passed validate, raised a raw ValueError there or ended in a traceback
    assert main(["validate", "--scenario", _mutated(name, tmp_path)]) == 4
    assert SCHEMA_MUTATIONS[name][2] in capsys.readouterr().err


@pytest.mark.parametrize("name", (*NOT_OBJECTS, "version_too_long"))
def test_cli_non_objects_and_long_integers_are_schema_errors(name, tmp_path, capsys):
    assert main(["validate", "--scenario", _mutated(name, tmp_path)]) == 4
    assert capsys.readouterr().err.startswith(f"schema error: {SCHEMA_MUTATIONS[name][2]}: ")


@pytest.mark.parametrize("command", ["validate", "enumerate", "residual", "self-test", "component-group"])
@pytest.mark.parametrize("name", DUPLICATES)
def test_cli_duplicate_ids_are_schema_errors(name, command, tmp_path, capsys):
    assert main([command, "--scenario", _mutated(name, tmp_path)]) == 4
    assert SCHEMA_MUTATIONS[name][2] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(capsys):
    assert main(["validate", "--scenario", fixture_path("sk.json")]) == 0
    out = capsys.readouterr().out
    assert "scenario is valid" in out


def test_cli_validate_reciprocity_failure(tmp_path, capsys):
    data = copy.deepcopy(fixture_data("sk.json"))
    data["elements"][0]["classes"]["v2"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "t" in err and "-1" in err or "reciprocity" in err


def test_cli_validate_checks_reciprocity_once(monkeypatch, capsys):
    from mp4spectrum import scenario

    calls = []
    check = scenario.validate_reciprocity
    monkeypatch.setattr(scenario, "validate_reciprocity", lambda *a: calls.append(a) or check(*a))
    assert main(["validate", "--scenario", fixture_path("sk.json"), "--format", "json"]) == 0
    assert len(calls) == 1


# values too large to echo whole: (document, JSON path, the start of the echo)
HUGE_VALUES = {
    "scenario_array": (list(range(200_000)), "$", "expected an object, got [0, 1, 2, 3, 4, 5, ...]"),
    "place_kind_list": (
        {"places": [{"id": "v1", "kind": [["k" * 100] * 100] * 100}]},
        "$.places[0].kind",
        "expected a string, got [[...], [...], [...], [...], [...], [...], ...]",
    ),
}


@pytest.mark.parametrize("name", sorted(HUGE_VALUES))
def test_cli_schema_error_echoes_a_bounded_value(name, tmp_path, capsys):
    # the whole value's repr was echoed: 1.49 MB on stderr for the array
    doc, json_path, echo = HUGE_VALUES[name]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {json_path}: {echo}")
    assert len(err.encode("utf-8")) < 1024


LONG = "n" * 100_000


def _long_names(doc):
    """Per schema error that echoes a name or label: (doc or a copy given a LONG one, subcommand argv or (), JSON path)."""

    def mutated(fn):
        d = copy.deepcopy(doc)
        fn(d)
        return d

    def twice(key, item):
        return mutated(lambda d: d.setdefault(key, []).extend([item, item]))

    weil = {"name": "w", "chi": "t", "s_places": [LONG, LONG]}
    return {
        "duplicate_place": (twice("places", {"id": LONG, "kind": "real"}), (), "$.places[4].id"),
        "duplicate_element": (twice("elements", dict(doc["elements"][0], name=LONG)), (), "$.elements[2].name"),
        "duplicate_datum": (twice("cuspidal", dict(doc["cuspidal"][0], name=LONG)), (), "$.cuspidal[2].name"),
        "duplicate_mp2_weil": (twice("mp2_weil", dict(weil, name=LONG, s_places=[])), (), "$.mp2_weil[1].name"),
        "unknown_element": (
            mutated(lambda d: d["cuspidal"][0].update(central_char=LONG)), (), "$.cuspidal[0].central_char"
        ),
        "unknown_summand": (
            mutated(lambda d: d["parameter"]["summands"].append([LONG, 1])), (), "$.parameter.summands[2]"
        ),
        "listed_twice": (mutated(lambda d: d.update(mp2_weil=[weil])), (), "$.mp2_weil[0].s_places[1]"),
        "no_class_at_place": (
            mutated(lambda d: d["places"].append({"id": LONG, "kind": "real"})), (), "$.elements[0].classes"
        ),
        "unknown_place": (doc, ("packet", "--place", LONG), "$.place"),
        # messages that scenario passes on: a square-class label, a datum's duality
        "unknown_class_label": (
            mutated(lambda d: d["elements"][0]["classes"].update(v1=LONG)), (), "$.elements[0].classes.v1"
        ),
        "bad_duality": (mutated(lambda d: d["cuspidal"][0].update(duality=LONG)), (), "$.cuspidal[0]"),
    }


@pytest.mark.parametrize("name", sorted(_long_names(fixture_data("sk.json"))))
def test_cli_schema_error_echoes_a_bounded_name(name, tmp_path, capsys):
    # a 100,000-character name was echoed whole: about 100,050 bytes on stderr
    doc, argv, json_path = _long_names(fixture_data("sk.json"))[name]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main([*(argv or ["validate"]), "--scenario", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {json_path}: ")
    assert len(err.encode("utf-8")) < 1024


def test_cli_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--scenario", str(path)]) == 4
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"version": 1}))
    assert main(["classify", "--scenario", str(path2)]) == 4


def test_cli_classify_sk(capsys):
    assert main(["classify", "--scenario", fixture_path("sk.json")]) == 0
    out = capsys.readouterr().out
    assert "saito-kurokawa" in out
    assert "eps~" in out


def test_cli_enumerate_json(capsys):
    assert main(["enumerate", "--scenario", fixture_path("principal.json"), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4
    assert len(data["constituents"]) == 4


def test_cli_enumerate_deterministic(capsys):
    main(["enumerate", "--scenario", fixture_path("hps.json"), "--format", "json"])
    first = capsys.readouterr().out
    main(["enumerate", "--scenario", fixture_path("hps.json"), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_enumerate_verbose_flags_vanishing(capsys):
    assert main(["enumerate", "--scenario", fixture_path("sk.json"), "--format", "json", "--verbose"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 12
    assert len(data["constituents"]) == 16  # admissible tuples, incl. vanishing members
    assert sum(1 for c in data["constituents"] if c["vanishing"]) == 4
    assert main(["enumerate", "--scenario", fixture_path("sk.json"), "--verbose"]) == 0
    assert "[vanishing member]" in capsys.readouterr().out


def _refused_in_child(command: str, path) -> tuple:
    """(exit code, seconds in main, peak RSS in KiB, stderr) of ``command --format json`` in a child.

    The child reports its peak RSS as the VmHWM of Linux's /proc/self/status
    (ru_maxrss would carry this process's RSS over the fork).
    """
    probe = (
        "import sys, time\n"
        "from mp4spectrum.cli import main\n"
        "t0 = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "seconds = time.perf_counter() - t0\n"
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(code, seconds, *peak)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [command, "--format", "json", "--scenario", str(path)]
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60)
    code, seconds, rss_kib = proc.stdout.split()
    return int(code), float(seconds), int(rss_kib), proc.stderr


def test_cli_enumerate_refuses_above_the_limit(tmp_path):
    # a principal parameter at 20 places, all nonarch-odd-1mod4, has 2^19
    # multiplicity-one tuples; listing them would take gigabytes
    doc = {
        "version": 1,
        "places": [{"id": f"v{i:02d}", "kind": "nonarch-odd-1mod4"} for i in range(1, 21)],
        "elements": [],
        "parameter": {"summands": [["1", 4]]},
    }
    path = tmp_path / "principal20.json"
    path.write_text(json.dumps(doc))
    code, seconds, rss_kib, err = _refused_in_child("enumerate", path)
    assert code == 3
    assert "524288 multiplicity-one tuples" in err
    assert seconds < 0.1
    assert rss_kib < 30 * 1024


@pytest.mark.parametrize("family", PTYPES)
def test_cli_enumerate_refuses_a_generated_scenario_above_the_limit(family, tmp_path):
    # a generated 24-place parameter of each family, far above the limit, is
    # refused before any tuple is built, with the count the affine solve over
    # the concatenated character masks gives
    rng = random.Random(f"enumerate-limit-{family}")
    doc = enumerate_draw(rng, family, 24, 24)
    path = tmp_path / f"{family}24.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    count = solved_coset_size(epsilon_tilde(sc.parameter).bits, prepare_local_data(sc.parameter, sc.places))
    assert count > ENUMERATE_LIMIT
    code, seconds, rss_kib, err = _refused_in_child("enumerate", path)
    assert code == 3
    assert f"{count} multiplicity-one tuples to list, above the limit of {ENUMERATE_LIMIT}" in err
    assert seconds < 0.1


def test_cli_residual_refuses_above_the_limit(tmp_path):
    # a symplectic datum irreducible at all 20 places, with one flagged
    # character, has 2^19 P1-SK constituents, counted before any is built
    doc = load_scengen().residual_scenario(random.Random("residual-limit"), (20, 4, 1, 20))
    path = tmp_path / "sk20.json"
    path.write_text(json.dumps(doc))
    code, seconds, rss_kib, err = _refused_in_child("residual", path)
    assert code == 3
    assert "524288 P1-SK constituents" in err
    assert seconds < 0.1
    assert rss_kib < 30 * 1024


_FREEZE_PROBES = {
    # the console script's path: main() reads sys.argv
    "main": "exit_code = mp4spectrum.cli.main()",
    # python -m mp4spectrum.cli: the __main__ block
    "run_module": (
        "try:\n"
        "    runpy.run_module('mp4spectrum.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    exit_code = exc.code\n"
    ),
}


@pytest.mark.parametrize("entry", sorted(_FREEZE_PROBES))
def test_program_path_freezes_the_import_heap(entry):
    # run as the program, main moves the import-time objects into the
    # permanent generation before it reads argv, so no collection rescans them
    probe = (
        "import gc, runpy, sys\n"
        "import mp4spectrum.cli\n"
        "assert gc.get_freeze_count() == 0\n"
        f"sys.argv = ['mp4spectrum', 'validate', '--format', 'json', '--scenario', {fixture_path('sk.json')!r}]\n"
        f"{_FREEZE_PROBES[entry]}\n"
        "print(exit_code, gc.get_freeze_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    code, frozen = map(int, last.split())
    assert code == 0 and json.loads("\n".join(report))["ok"] is True
    assert frozen > 1000


def test_in_process_main_does_not_freeze(capsys):
    # a caller that passes argv (tests, the benchmark, tools) gets no process-wide gc change
    before = gc.get_freeze_count()
    assert main(["enumerate", "--scenario", fixture_path("tempered.json"), "--format", "json"]) == 0
    assert main(["validate", "--scenario", fixture_path("missing.json")]) == 4
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("name", ["validate", "enumerate-verbose", "malformed"])
def test_cli_child_prints_what_main_prints_in_process(name, tmp_path, capsys):
    # the program path (frozen heap) and an in-process call write the same bytes and exit alike
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"version": 1, "places": [{"id": "v1"}]}))
    argv = {
        "validate": ["validate", "--scenario", fixture_path("soudry.json")],
        "enumerate-verbose": ["enumerate", "--verbose", "--scenario", fixture_path("tempered.json")],
        "malformed": ["validate", "--format", "json", "--scenario", str(malformed)],
    }[name]
    code = main(argv)
    out, err = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-m", "mp4spectrum.cli", *argv], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    if name == "malformed":
        assert code == 4 and err.startswith("schema error")
    else:
        assert code == 0 and out


def test_cli_enumerate_limit_counts_every_tuple(monkeypatch, capsys):
    # sk has 16 multiplicity-one tuples, 4 of them vanishing: the limit is on
    # the 16, whether or not --verbose lists the vanishing ones
    multiplicity = sys.modules["mp4spectrum.multiplicity"]
    monkeypatch.setattr(multiplicity, "ENUMERATE_LIMIT", 15)
    assert main(["enumerate", "--scenario", fixture_path("sk.json")]) == 3
    assert "16 multiplicity-one tuples" in capsys.readouterr().err
    assert main(["self-test", "--scenario", fixture_path("sk.json")]) == 3
    monkeypatch.setattr(multiplicity, "ENUMERATE_LIMIT", 16)
    assert main(["enumerate", "--verbose", "--scenario", fixture_path("sk.json")]) == 0
    assert main(["self-test", "--scenario", fixture_path("sk.json")]) == 0


def test_cli_packet_requires_place(capsys):
    assert main(["packet", "--scenario", fixture_path("sk.json")]) == 4
    assert main(["packet", "--scenario", fixture_path("sk.json"), "--place", "v9"]) == 4
    assert "schema error: $.place: unknown place 'v9'" in capsys.readouterr().err
    assert main(["packet", "--scenario", fixture_path("sk.json"), "--place", "v3"]) == 0
    out = capsys.readouterr().out
    assert "(+,+)" in out and "*L" in out


def test_cli_self_test(capsys):
    for name in ALL_FIXTURES:
        assert main(["self-test", "--scenario", fixture_path(name)]) == 0
        assert "self-test: OK" in capsys.readouterr().out


def test_cli_self_test_refuses_above_the_place_cap(tmp_path, capsys):
    # brute force refuses more than BRUTE_FORCE_PLACE_CAP places, so self-test
    # exits 3 on the principal fixture with five more places, which enumerate lists
    data = fixture_data("principal.json")
    for k in range(4, 9):
        data["places"].append({"id": f"v{k}", "kind": "nonarch-odd-1mod4"})
        data["elements"][0]["classes"][f"v{k}"] = "1"
    path = tmp_path / "principal8.json"
    path.write_text(json.dumps(data))
    assert main(["enumerate", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.startswith("128 constituents")
    assert main(["self-test", "--scenario", str(path)]) == 3
    assert "more than 6 places" in capsys.readouterr().err


def test_cli_correspond_and_unsupported(capsys):
    q = json.dumps({"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}})
    assert main(["correspond", "--query", q]) == 0
    out = capsys.readouterr().out
    assert "round trip: ok" in out
    # no row is tabulated at an archimedean place: orthogonal-S2 printed its nonarchimedean row with exit 0
    rows = [
        {"type": "steinberg-S4", "a": "1"},
        {"type": "orthogonal-S2", "tau": "t"},
        {"type": "4dim", "tag": "t"},
        {"type": "pair-supercuspidal", "tags": ["r1", "r2"]},
        {"type": "double-supercuspidal", "tag": "t"},
        {"type": "double-steinberg", "a": "1"},
        {"type": "steinberg-pair", "a": "1", "b": "1"},
        {"type": "sc-plus-S2", "tag": "t", "a": "1"},
    ]
    for kind, row in itertools.product(("real", "complex"), rows):
        assert main(["correspond", "--query", json.dumps({"place_kind": kind, "row": row})]) == 3, (kind, row)
        out, err = capsys.readouterr()
        assert not out and err.startswith("unsupported: ") and "nonarchimedean places only" in err
    # RowNotFound printed like every other exit-3 line, not quoted as a KeyError's message was
    q = json.dumps({"place_kind": "real", "row": {"type": "steinberg-S4", "a": "1"}})
    assert main(["correspond", "--query", q]) == 3
    assert capsys.readouterr().err == "unsupported: rows are tabulated at nonarchimedean places only\n"


def test_cli_reduce(capsys):
    q = json.dumps(
        {
            "group": "Mp4",
            "parabolic": "P1",
            "chi": {"class": "u"},
            "s": "1/2",
            "inner": {"type": "mp-steinberg", "class": "u"},
        }
    )
    assert main(["reduce", "--query", q]) == 0
    out = capsys.readouterr().out
    assert "composition series" in out
    q2 = json.dumps(
        {
            "group": "Mp4",
            "parabolic": "P2",
            "tau": {"type": "supercuspidal", "tag": "x"},
            "s": "1/2",
        }
    )
    assert main(["reduce", "--query", q2]) == 3  # central character unspecified


def test_cli_ktype(capsys):
    q = json.dumps({"op": "degree", "p": 2, "q": 1, "a": [0], "eps": -1, "b": [], "delta": -1})
    assert main(["ktype", "--query", q]) == 0
    assert "deg = 3" in capsys.readouterr().out
    q2 = json.dumps({"op": "catalog", "query": {"type": "discrete", "a": "5/2", "b": "3/2", "eps1": 1, "eps2": 1}})
    assert main(["ktype", "--query", q2]) == 0
    assert "7/2" in capsys.readouterr().out


def test_cli_residual(capsys):
    assert main(["residual", "--scenario", fixture_path("hps.json"), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "B-pr[" in out and "P1-HPS[" in out


def test_cli_export_tables(tmp_path, capsys):
    out_path = tmp_path / "tables.json"
    assert main(["export-tables", "-o", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert set(data) == {"hilbert", "packets", "shimura", "reducibility", "elementary_weil", "ktypes"}
    assert data["hilbert"]["real"]["table"]["-1"]["-1"] == -1
    # stable across runs
    out_path2 = tmp_path / "tables2.json"
    assert main(["export-tables", "-o", str(out_path2)]) == 0
    capsys.readouterr()
    assert out_path.read_text() == out_path2.read_text()


# files that cannot be read or written: (argv with {tmp} for the test's
# directory, JSON path); a file holding b"\xff{}" is not UTF-8
FILE_ERRORS = {
    "scenario_missing": (["residual", "--scenario", "{tmp}/missing.json"], "$"),
    "scenario_is_a_directory": (["classify", "--scenario", "{tmp}"], "$"),
    "scenario_not_utf8": (["validate", "--scenario", "{tmp}/latin.json"], "$"),
    "query_file_missing": (["correspond", "--query", "@{tmp}/missing.json"], "$.query"),
    "query_file_not_utf8": (["reduce", "--query", "@{tmp}/latin.json"], "$.query"),
    "export_into_a_missing_directory": (["export-tables", "-o", "{tmp}/missing/x.json"], "$"),
    "export_onto_a_directory": (["export-tables", "-o", "{tmp}"], "$"),
}


@pytest.mark.parametrize("name", sorted(FILE_ERRORS))
def test_cli_file_errors_exit_typed(name, tmp_path, capsys):
    # a schema error at the JSON path, naming the file, not a traceback
    (tmp_path / "latin.json").write_bytes(b"\xff{}")
    argv, json_path = FILE_ERRORS[name]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {json_path}: ")
    assert repr(argv[-1].lstrip("@")) in err


# options a subcommand does not read: (argv, the option named); each exited 0, the option ignored
UNREAD_OPTIONS = {
    "enumerate_place_of_no_place": (["enumerate", "--scenario", fixture_path("sk.json"), "--place", "v9"], "--place"),
    "enumerate_place_of_a_place": (["enumerate", "--scenario", fixture_path("sk.json"), "--place", "v3"], "--place"),
    "component_group_query_verbose": (
        ["component-group", "--scenario", fixture_path("sk.json"), "--query", '{"x":1}', "--verbose"],
        "--query",
    ),
    "export_tables_scenario": (["export-tables", "--scenario", "missing.json"], "--scenario"),
    "validate_verbose": (["validate", "--verbose", "--scenario", fixture_path("sk.json")], "--verbose"),
    "residual_output": (["residual", "--scenario", fixture_path("hps.json"), "-o", "{tmp}/out.json"], "-o"),
    "self_test_place_joined": (["self-test", "--scenario", fixture_path("hps.json"), "--place=v1"], "--place=v1"),
    "correspond_scenario": (
        ["correspond", "--scenario", fixture_path("sk.json"), "--query", json.dumps(
            {"place_kind": "nonarch-odd-3mod4", "row": {"type": "steinberg-S4", "a": "u"}}
        )],
        "--scenario",
    ),
}


@pytest.mark.parametrize("name", sorted(UNREAD_OPTIONS))
def test_cli_unread_options_are_schema_errors(name, tmp_path, capsys):
    # refused before the subcommand runs: nothing is printed or written
    argv, option = UNREAD_OPTIONS[name]
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 4
    out, err = capsys.readouterr()
    assert not out and err == f"schema error: $: {argv[0]} does not read {option!r}\n"
    assert not list(tmp_path.iterdir())


# usage errors; when argparse read argv, it printed its usage for them and exited 2, the validation-failure code
USAGE_ERRORS = {
    "enumerate_format_xml": ["enumerate", "--scenario", fixture_path("sk.json"), "--format", "xml"],
    "no_subcommand": [],
    "unknown_subcommand": ["frobnicate", "--scenario", fixture_path("sk.json")],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_errors_are_schema_errors(name, capsys):
    assert main(USAGE_ERRORS[name]) == 4
    out, err = capsys.readouterr()
    assert not out and err.startswith("schema error: $: ") and err.count("\n") == 1


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0 and "--scenario" in capsys.readouterr().out


def test_cli_help_lists_subcommands_or_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and all(f"\n  {name} " in out for name in COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["export-tables", "--he"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--output, -o" in out and "--format" in out and "--scenario" not in out


# the argparse parser parse_args replaced, rebuilt as its reference, as the twins of test_record.py are
_OLD_ARGUMENTS = {
    "scenario": (("--scenario",), {"help": "path to a scenario JSON file"}),
    "verbose": (("--verbose",), {"action": "store_true"}),
    "place": (("--place",), {"help": "place id"}),
    "query": (("--query",), {"help": "JSON query string, or @file"}),
    "output": (("--output", "-o"), {"help": "output file"}),
}


class _Refused(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def _reference_parser():
    ap = _ReferenceParser(prog="mp4spectrum")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for option in OPTIONS[name]:
            flags, kwargs = _OLD_ARGUMENTS[option]
            p.add_argument(*flags, **kwargs)
    return ap


REFERENCE = _reference_parser()


def _reference_reading(argv):
    """("read", values), ("error", the does-not-read message), ("refused",) or ("help", exit code), as main saw them."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args, unread = REFERENCE.parse_known_args(argv)
    except _Refused:
        return ("refused",)
    except SystemExit as exc:
        return ("help", exc.code)
    if unread:
        return ("error", f"$: {args.command} does not read {unread[0]!r}")
    return ("read", vars(args))


def _reading(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return ("read", vars(parse_args(list(argv))))
    except SchemaError as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        return ("help", exc.code)


_FLAGS = ["-h", "--help", "--format", *(flag for flags, _ in _OLD_ARGUMENTS.values() for flag in flags)]
# bare words and values, many starting with "-": a number, "-" alone, or with a space, is a word to argparse
_WORDS = st.sampled_from(
    ["", "x", "text", "json", "xml", "a b", "--", "-", "-1", "-.5", "-1.5", "-1\n", "-x", "-x y", "-o x", "-h x", "="]
) | st.text(alphabet="-=hox .1", max_size=4)
_VALUES = st.one_of(st.just("x"), st.just("text"), st.just("json"), _WORDS)


def _prefixes(names):
    return st.sampled_from(names).flatmap(lambda name: st.integers(1, len(name)).map(lambda k: name[:k]))


_TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, *_FLAGS]),
    _prefixes([*COMMANDS, *_FLAGS]),
    st.tuples(_prefixes(_FLAGS), _VALUES).map("=".join),
    st.tuples(st.sampled_from(["-o", "-h"]), st.sampled_from(["h", "o", "hh", "ho", "oF", "x"]) | _WORDS).map("".join),
    _WORDS,
)


def _argvs(command):
    """command, then its own flags (or prefixes of them) with values, and any other tokens."""
    flags = ["--format", *(flag for option in OPTIONS[command] for flag in _OLD_ARGUMENTS[option][0])]
    pairs = st.tuples(st.sampled_from(flags) | _prefixes(flags), _VALUES).map(list)
    groups = st.one_of(pairs, pairs, pairs, _TOKENS.map(lambda t: [t]))
    return st.lists(groups, max_size=4).map(lambda gs: [command, *itertools.chain.from_iterable(gs)])


_ARGVS = st.one_of(st.lists(_TOKENS, max_size=6), *[st.sampled_from(list(COMMANDS)).flatmap(_argvs)] * 3)


# argv forms the reader takes, with the values main reads besides the defaults
READ_FORMS = {
    "separate_value": (["validate", "--scenario", "s.json"], {"scenario": "s.json"}),
    "joined_value": (["packet", "--place=v1", "--scenario=s.json"], {"place": "v1", "scenario": "s.json"}),
    "short_joined": (["export-tables", "-oout.json"], {"output": "out.json"}),
    "short_equals": (["export-tables", "-o=out.json"], {"output": "out.json"}),
    "prefixes": (
        ["enumerate", "--scen", "s.json", "--form", "json", "--v"],
        {"scenario": "s.json", "format": "json", "verbose": True},
    ),
    "repeated_last_wins": (["ktype", "--query", "a", "--q=b", "--format=json", "--format", "text"], {"query": "b"}),
    "negative_number_value": (["reduce", "--query", "-1"], {"query": "-1"}),
    "value_with_space": (["correspond", "--query", "-x y"], {"query": "-x y"}),
}


@pytest.mark.parametrize("name", sorted(READ_FORMS))
def test_parse_args_read_forms(name):
    argv, read = READ_FORMS[name]
    defaults = {"format": "text", **{o: False if o == "verbose" else None for o in OPTIONS[argv[0]]}}
    assert vars(parse_args(argv)) == {"command": argv[0], **defaults, **read} == _reference_reading(argv)[1]


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="argparse 3.13 reads -hX and a joined '--' otherwise; parse_args reads as 3.10-3.12 did",
)
@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_ARGVS)
def test_parse_args_reads_argv_as_argparse_did(argv):
    # the same values, the same first unread token, or both refuse (with messages of their own)
    expected, got = _reference_reading(argv), _reading(argv)
    if expected == ("refused",):
        assert got[0] == "error" and " does not read " not in got[1], (argv, got)
    else:
        assert got == expected, argv


P1_QUERY = {"group": "Mp4", "parabolic": "P1", "chi": {"class": "u"}, "s": "1/2", "inner": {"type": "weil-odd", "class": "u"}}
P2_QUERY = {"group": "Mp4", "parabolic": "P2", "tau": {"type": "supercuspidal", "tag": "t"}, "s": "1/2"}
JP2 = {"type": "jp2", "a": "2", "s": "1/2"}
JP2_QUERY = {"op": "catalog", "query": JP2}

MALFORMED_QUERIES = {
    "ktype_degree_without_p": ("ktype", {"op": "degree"}, "$.query.p"),
    "ktype_catalog_without_a": ("ktype", {"op": "catalog", "query": {"type": "discrete"}}, "$.query.query.a"),
    "ktype_degree_p_not_int": ("ktype", {"op": "degree", "p": "x", "q": 1}, "$.query.p"),
    "reduce_s_not_rational": ("reduce", {"group": "Mp4", "parabolic": "P1", "s": "abc"}, "$.query.s"),
    "correspond_row_without_tau": ("correspond", {"row": {"type": "orthogonal-S2"}}, "$.query.row.tau"),
    "reduce_omega_trivial_string": (
        "reduce",
        {
            "group": "Mp4",
            "parabolic": "P2",
            "tau": {"type": "supercuspidal", "tag": "t"},
            "s": "1/2",
            "omega_trivial": "false",
        },
        "$.query.omega_trivial",
    ),
    "reduce_chi_class_null": (
        "reduce",
        {
            "group": "Mp4",
            "parabolic": "P1",
            "chi": {"class": None},
            "s": "1/2",
            "inner": {"type": "weil-odd", "class": "u"},
        },
        "$.query.chi.class",
    ),
    "correspond_tau_null": ("correspond", {"row": {"type": "orthogonal-S2", "tau": None}}, "$.query.row.tau"),
    # class labels are checked at the row's place kind, as steinberg-S4 always did
    "correspond_steinberg_pair_unknown_class": (
        "correspond",
        {"row": {"type": "steinberg-pair", "a": "u", "b": "zz9"}},
        "$.query.row.b",
    ),
    "correspond_sc_plus_S2_unknown_class": (
        "correspond",
        {"row": {"type": "sc-plus-S2", "tag": "t", "a": "zz9"}},
        "$.query.row.a",
    ),
    "correspond_double_steinberg_unknown_class": (
        "correspond",
        {"row": {"type": "double-steinberg", "a": "zz9"}},
        "$.query.row.a",
    ),
    # given as text: nesting this deep ended in json's RecursionError and a traceback
    "correspond_nested_too_deeply": ("correspond", '{"row": ' + "[" * DEEP + "]" * DEEP + "}", "$.query"),
    "query_not_object": ("reduce", "[1]", "$.query"),
    "reduce_unknown_inner_type": ("reduce", {**P1_QUERY, "inner": {"type": "zz"}}, "$.query.inner"),
    "reduce_inner_not_object": ("reduce", {**P1_QUERY, "inner": "weil-odd"}, "$.query.inner"),
    "reduce_unknown_tau_type": ("reduce", {**P2_QUERY, "tau": {"type": ["zz"]}}, "$.query.tau"),
    "ktype_unknown_catalog_type": ("ktype", {"op": "catalog", "query": {"type": "zz"}}, "$.query.query.type"),
    "ktype_catalog_without_query": ("ktype", {"op": "catalog"}, "$.query.query.type"),
    "ktype_catalog_eps1_zero": (
        "ktype",
        {"op": "catalog", "query": {"type": "jb", "eps1": 0, "eps2": 1}},
        "$.query.query.eps1",
    ),
    "ktype_unknown_op": ("ktype", {"op": "zz"}, "$.query.op"),
    "reduce_chi_neither_class_nor_tag": ("reduce", {**P1_QUERY, "chi": {"label": "u"}}, "$.query.chi"),
    "reduce_chi_inverted_not_bool": ("reduce", {**P1_QUERY, "chi": {"tag": "t", "inverted": 1}}, "$.query.chi.inverted"),
    "reduce_mp2_member_eps_zero": (
        "reduce",
        {**P1_QUERY, "inner": {"type": "mp2-member", "tag": "t", "eps": 0}},
        "$.query.inner.eps",
    ),
    "reduce_p1_without_inner": ("reduce", {k: v for k, v in P1_QUERY.items() if k != "inner"}, "$.query.inner"),
    "reduce_group_number": ("reduce", {**P1_QUERY, "group": 5}, "$.query.group"),
    "reduce_real_discrete_a_not_rational": (
        "reduce",
        {**P2_QUERY, "tau": {"type": "real-discrete", "a": "x"}},
        "$.query.tau.a",
    ),
    "ktype_degree_a_item_not_int": ("ktype", {"op": "degree", "p": 2, "q": 1, "a": ["x"]}, "$.query.a[0]"),
    "ktype_degree_a_not_list": ("ktype", {"op": "degree", "p": 2, "q": 1, "a": 5}, "$.query.a"),
    "ktype_degree_even_signature": ("ktype", {"op": "degree", "p": 2, "q": 2}, "$.query"),
    "ktype_harmonics_n_not_int": ("ktype", {"op": "harmonics", "p": 2, "q": 1, "a": [0], "n": "2"}, "$.query.n"),
    "correspond_unknown_place_kind": ("correspond", {"place_kind": "zz", "row": {"type": "4dim"}}, "$.query.place_kind"),
    "correspond_row_not_object": ("correspond", {"row": 5}, "$.query.row"),
    "correspond_unknown_row_type": ("correspond", {"row": {"type": "zz"}}, "$.query.row.type"),
    "correspond_steinberg_S4_unknown_class": (
        "correspond",
        {"row": {"type": "steinberg-S4", "a": "zz9"}},
        "$.query.row.a",
    ),
    "correspond_tags_not_two": ("correspond", {"row": {"type": "pair-supercuspidal", "tags": ["t"]}}, "$.query.row.tags"),
    "correspond_tags_not_list": ("correspond", {"row": {"type": "pair-supercuspidal", "tags": "t"}}, "$.query.row.tags"),
    "correspond_tag_not_string": (
        "correspond",
        {"row": {"type": "pair-supercuspidal", "tags": ["t", 1]}},
        "$.query.row.tags[1]",
    ),
    "correspond_sc_plus_S2_eps_twist_zero": (
        "correspond",
        {"row": {"type": "sc-plus-S2", "tag": "t", "a": "u", "eps_twist": 0}},
        "$.query.row.eps_twist",
    ),
    # json refuses an integer of more than 4,300 digits with a plain ValueError
    "ktype_degree_p_too_long": ("ktype", '{"op": "degree", "p": ' + "1" * 5001 + "}", "$.query"),
    # each of these exponents gives more digits than str() prints
    **{
        f"ktype_catalog_a_exponent_{a}": ("ktype", {**JP2_QUERY, "query": {**JP2, "a": a}}, "$.query.query.a")
        for a in ("1e5000", "1e-5000", "1e100000000", "1E+4300")
    },
    "reduce_s_exponent_too_large": ("reduce", {**P1_QUERY, "s": "1e5000"}, "$.query.s"),
    # a + 1/2 had more digits than str() prints: a ValueError traceback; a rational keeps DIGIT_MARGIN digits free
    **{
        f"ktype_catalog_a_{n}_digits": ("ktype", {**JP2_QUERY, "query": {**JP2, "a": "9" * n}}, "$.query.query.a")
        for n in (4300, 4301 - DIGIT_MARGIN)
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_QUERIES))
def test_cli_malformed_query_exit_typed(name, capsys):
    sub, query, json_path = MALFORMED_QUERIES[name]
    assert main([sub, "--query", query if isinstance(query, str) else json.dumps(query)]) == 4
    assert capsys.readouterr().err.startswith(f"schema error: {json_path}: ")


def test_cli_huge_exponent_is_refused_before_it_is_built(capsys):
    query = json.dumps({**JP2_QUERY, "query": {**JP2, "a": "1e100000000"}})
    start = time.perf_counter()
    assert main(["ktype", "--query", query]) == 4
    assert time.perf_counter() - start < 0.1
    capsys.readouterr()


@pytest.mark.parametrize(
    "a, s",
    [
        ("1e4000", "1/2"),
        ("2", "1.5e-4000"),
        ("2.5", "15e-1"),
        ("3/2", "5E-1"),
        # the most digits read: the weights a + 1/2 and -a - 1/2 have one more, and print
        pytest.param("9" * (4300 - DIGIT_MARGIN), "1/2", id="nines-at-the-margin"),
    ],
)
def test_cli_exponents_within_the_digit_limit_are_read(a, s, capsys):
    assert main(["ktype", "--query", json.dumps({**JP2_QUERY, "query": {**JP2, "a": a, "s": s}})]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("n", [10**30, 10**8])
def test_cli_ktype_harmonics_rank_is_capped(n, capsys):
    # refused before the weight list is built: 10**30 overflowed and 10**8
    # built a list of that many weights
    q = json.dumps({"op": "harmonics", "p": 2, "q": 1, "a": [0], "eps": 1, "b": [], "delta": 1, "n": n})
    assert main(["ktype", "--query", q]) == 3
    assert "$.query.n" in capsys.readouterr().err


def test_cli_ktype_harmonics_at_the_cap(capsys):
    q = {"op": "harmonics", "p": 2, "q": 1, "a": [0], "eps": 1, "b": [], "delta": 1, "n": HARMONICS_RANK_CAP}
    assert main(["ktype", "--query", json.dumps(q)]) == 0
    assert capsys.readouterr().out.count("1/2") == HARMONICS_RANK_CAP
