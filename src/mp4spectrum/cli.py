"""Command-line driver.

Subcommands:

  validate         reciprocity + sign-product checks on a scenario
  classify         parameter type and sign character
  component-group  global component group and localizations
  enumerate        discrete-spectrum constituents (--verbose adds the
                   multiplicity-one tuples with a vanishing member)
  packet           local packet table at one place (--place)
  correspond       local Shimura correspondence rows (--query)
  reduce           reducibility oracle for induced representations (--query)
  ktype            K-type degree / joint harmonics / lowest K'-types (--query)
  residual         residual-spectrum constituents
  export-tables    emit the compiled tables as JSON
  self-test        enumeration against the brute-force oracle

Each subcommand builds its result dict once.  ``--format json`` prints
that dict; ``--format text`` renders it through the command's ``_*_text``
function, which is called only then.  The constituent arrays of enumerate
and residual are ``Encoded`` values, likewise joined only under ``--format json``.

Exit codes: 0 success, 2 validation failure, 3 unsupported shape, 4 schema error
(an option the subcommand does not read, per ``OPTIONS``, is one too).
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring
from operator import getitem

from . import tables
from .descriptors import render, sign_label, sign_str
from .ktypes import (
    HARMONICS_RANK_CAP,
    DiscreteSeriesQuery,
    KTypeO,
    LanglandsBQuery,
    LanglandsP1Query,
    LanglandsP2Query,
    NotInHarmonics,
    UncataloguedShape,
    degree_o,
    joint_harmonics,
    lowest_kprime_catalog,
)
from .multiplicity import ScenarioTooLarge, brute_force_count, enumerate_constituents, listed_tuples, local_data
from .packets import (
    REDUCTIONS,
    RowNotFound,
    UnsupportedInduction,
    UnsupportedShape,
    reducibility_oracle,
)
from .parameters import InvalidParameter, MissingSignData, classify, epsilon_tilde
from .reports import FIELD, MAP_END, OBJECT, OBJECT_END, Encoded, Report, array, dumps, entry
from .residual import residual_spectrum
from .scenario import (
    ScenarioValidationError,
    SchemaError,
    _as_bool,
    _as_fraction,
    _as_int,
    _as_list,
    _as_object,
    _as_sign,
    _as_str,
    _require,
    load_scenario,
    parse_json,
    read_file,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_SCHEMA = 4


def _load(args) -> "Scenario":
    if not args.scenario:
        raise SchemaError("$", "this subcommand needs --scenario")
    return load_scenario(args.scenario)


def _need_parameter(sc):
    if sc.parameter is None:
        raise ScenarioValidationError("scenario declares no parameter")
    return sc.parameter


def cmd_validate(args) -> Report:
    sc = _load(args)
    recip = sc.validate()
    data = {
        "reciprocity": {"ok": recip.ok, "checked_pairs": recip.checked_pairs, "violation": recip.violation},
        "places": [{"id": p.id, "kind": p.kind} for p in sc.places],
        "elements": sorted(e.name for e in sc.elements),
        "ok": True,
    }
    return Report("validate", data, functools.partial(_validate_text, cuspidal=len(sc.cuspidal)))


def _validate_text(d, cuspidal):
    return [
        f"reciprocity: OK ({d['reciprocity']['checked_pairs']} ordered pairs)",
        f"cuspidal sign products: OK ({cuspidal} data)",
        "scenario is valid",
    ]


def cmd_classify(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    ptype = classify(phi)
    eps = epsilon_tilde(phi)
    data = {
        "type": ptype.value,
        "epsilon_tilde": {lab: sign_str(v) for lab, v in zip(eps.group.basis, eps.values)},
    }
    return Report("classify", data, _classify_text)


def _classify_text(d):
    yield f"parameter type: {d['type']}"
    for lab, s in d["epsilon_tilde"].items():
        yield f"  eps~({lab}) = {s}1"


def cmd_component_group(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    eps = epsilon_tilde(phi)
    group = eps.group
    locs = {}
    for p in sorted(sc.places, key=lambda p: p.id):
        ld = local_data(phi, p)
        locs[p.id] = {
            "rank": ld.group.rank,
            "characters": ld.group.order(),
            "map": [list(r) for r in ld.iota.rows],
        }
    data = {
        "basis": list(group.basis),
        "rank": group.rank,
        "epsilon_tilde": [sign_str(v) for v in eps.values],
        "localizations": locs,
    }
    return Report("component-group", data, _component_group_text)


def _component_group_text(d):
    yield f"S_phi is free of rank {d['rank']} on {', '.join(d['basis'])}"
    yield "eps~ = (" + ",".join(d["epsilon_tilde"]) + ")"
    for pid, loc in d["localizations"].items():
        yield f"  at {pid}: local rank {loc['rank']}, {loc['characters']} characters"


def cmd_enumerate(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    locals_, listed = listed_tuples(phi, sc.places, include_vanishing=args.verbose)
    # the label and member at a place are functions of the local character
    # there, so each (place, character index) pair is rendered once and a
    # constituent is joined from its index tuple
    places = [
        (ld.place.id, [sign_label(e.label.values) for e in ld.entries], [render(e.member) for e in ld.entries])
        for ld in locals_
    ]
    data = {
        "count": sum(not vanishing for _, vanishing in listed),
        "constituents": Encoded(functools.partial(_constituents_json, places, listed)),
    }
    text = functools.partial(_enumerate_text, places=places, listed=listed, verbose=args.verbose)
    return Report("enumerate", data, text)


def _constituents_json(places, listed) -> str:
    """enumerate's "constituents" array as reports.dumps would lay it out under a top-level key."""
    # every place's entry but the first follows a comma
    etas = [[("," if k else "") + entry(pid, t) for t in labels] for k, (pid, labels, _) in enumerate(places)]
    members = [[("," if k else "") + entry(pid, t) for t in rendered] for k, (pid, _, rendered) in enumerate(places)]
    head = f'{OBJECT}{FIELD}"eta": {{'
    middle = f'{MAP_END},{FIELD}"members": {{'
    tails = tuple(f'{MAP_END},{FIELD}"vanishing": {v}{OBJECT_END}' for v in ("false", "true"))
    parts = []
    for choice, vanishing in listed:
        parts.append(head)
        parts += map(getitem, etas, choice)
        parts.append(middle)
        parts += map(getitem, members, choice)
        parts.append(tails[vanishing])
    return array(parts)


def _enumerate_text(d, places, listed, verbose):
    yield f"{d['count']} constituents"
    etas = [[f"{pid}:{label}" for label in labels] for pid, labels, _ in places]
    members = [[f"      {pid}: {member}" for member in rendered] for pid, _, rendered in places]
    for choice, vanishing in listed:
        flag = "  [vanishing member]" if vanishing else ""
        yield "  " + " ".join(map(getitem, etas, choice)) + flag
        if verbose:
            yield from map(getitem, members, choice)


def cmd_packet(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    if not args.place:
        raise SchemaError("$", "packet needs --place <id>")
    try:
        place = sc.place(args.place)
    except KeyError:
        raise SchemaError("$.place", f"unknown place {args.place!r}") from None
    data = {
        "place": place.id,
        "kind": place.kind,
        "entries": [e.rendered() for e in local_data(phi, place).entries],
    }
    return Report("packet", data, _packet_text)


def _packet_text(d):
    yield f"packet at {d['place']} ({d['kind']}):"
    for e in d["entries"]:
        mark = " *L" if e["in_l_packet"] else ""
        yield f"  {e['label']}  {e['member']}{mark}"


def _query_of(args) -> dict:
    if not args.query:
        raise SchemaError("$", "this subcommand needs --query '<json>'")
    text = args.query
    if text.startswith("@"):
        text = read_file(text[1:], "$.query")
    q = parse_json(text, "$.query")
    if not isinstance(q, dict):
        raise SchemaError("$.query", "query must be an object")
    return q


def cmd_correspond(args) -> Report:
    q = _query_of(args)
    row = tables.shimura_row_from_query(q)
    # round-trip check: SO descriptor -> label -> Mp member, must be a bijection
    for e in row.entries:
        lab, mp = row.to_mp(e.so)
        assert lab == e.label and mp == e.mp
    data = {"row": row.name, "entries": [e.rendered() for e in row.entries], "round_trip": "ok"}
    return Report("correspond", data, _correspond_text)


def _correspond_text(d):
    yield f"row: {d['row']}"
    for e in d["entries"]:
        yield f"  {e['label']}  Mp: {e['mp']}"
        yield f"          SO({e['so_space']}): {e['so']}"
    yield f"round trip: {d['round_trip']}"


def cmd_reduce(args) -> Report:
    q = _query_of(args)
    group = _as_str(q.get("group", "Mp4"), "$.query.group")
    parabolic = _as_str(q.get("parabolic", "P1"), "$.query.parabolic")
    kwargs = {}
    if "chi" in q:
        kwargs["chi"] = tables.char_from_query(q["chi"])
    if "s" in q:
        kwargs["s"] = _as_fraction(q["s"], "$.query.s")
    if "inner" in q:
        kwargs["inner"] = tables.descriptor_from_query(q["inner"])
    if "tau" in q:
        kwargs["tau"] = tables.gl2_from_query(q["tau"])
    if "omega_trivial" in q:
        kwargs["omega_trivial"] = _as_bool(q["omega_trivial"], "$.query.omega_trivial")
    if "self_dual" in q:
        kwargs["self_dual"] = _as_bool(q["self_dual"], "$.query.self_dual")
    _, needs = REDUCTIONS.get((group, parabolic), (None, ()))
    for key in needs:
        _require(q, key, "$.query")
    result = reducibility_oracle(group, parabolic, **kwargs)
    data = {
        "reducible": result.reducible,
        "direct_sum": result.direct_sum,
        "constituents": [render(c) for c in result.constituents],
    }
    return Report("reduce", data, _reduce_text)


def _reduce_text(d):
    if not d["reducible"]:
        return ["irreducible"]
    if d["direct_sum"]:
        return ["direct sum:", *(f"  (+) {c}" for c in d["constituents"])]
    return ["composition series (sub, then quotient):", *(f"  {c}" for c in d["constituents"])]


def _int_list(q: dict, key: str, path: str) -> tuple:
    values = _as_list(q.get(key, []), f"{path}.{key}")
    return tuple(_as_int(x, f"{path}.{key}[{i}]") for i, x in enumerate(values))


def _ktype_o(q: dict) -> KTypeO:
    path = "$.query"
    fields = {
        "p": _as_int(_require(q, "p", path), f"{path}.p"),
        "q": _as_int(_require(q, "q", path), f"{path}.q"),
        "a": _int_list(q, "a", path),
        "eps": _as_sign(q.get("eps", 1), f"{path}.eps"),
        "b": _int_list(q, "b", path),
        "delta": _as_sign(q.get("delta", 1), f"{path}.delta"),
    }
    try:
        return KTypeO(**fields)
    except ValueError as exc:  # signature and weights that name no O(p) x O(q) type
        raise SchemaError(path, str(exc)) from None


def _catalog_query(sub):
    path = "$.query.query"
    sub = _as_object(sub, path)
    t = sub.get("type")

    def frac(key):
        return _as_fraction(_require(sub, key, path), f"{path}.{key}")

    def sign(key):
        return _as_sign(_require(sub, key, path), f"{path}.{key}")

    if t == "discrete":
        return DiscreteSeriesQuery(frac("a"), frac("b"), sign("eps1"), sign("eps2"))
    if t == "jp1":
        return LanglandsP1Query(sign("chi_parity"), frac("a"), frac("s"))
    if t == "jp2":
        return LanglandsP2Query(frac("a"), frac("s"))
    if t == "jb":
        return LanglandsBQuery(sign("eps1"), sign("eps2"))
    raise SchemaError("$.query.query.type", f"unknown catalog query {t!r}")


def cmd_ktype(args) -> Report:
    q = _query_of(args)
    op = q.get("op")
    if op == "degree" or op == "harmonics":
        mu = _ktype_o(q)
        data = {"degree": degree_o(mu)}
        if op == "harmonics":
            n = _as_int(q.get("n", 2), "$.query.n")
            if n > HARMONICS_RANK_CAP:
                raise NotInHarmonics(f"$.query.n: rank {n} is above the cap of {HARMONICS_RANK_CAP}")
            mp = joint_harmonics(mu, n)
            data["kprime"] = [str(w) for w in mp.weights]
        return Report("ktype", data, _ktype_text)
    if op == "catalog":
        result = lowest_kprime_catalog(_catalog_query(q.get("query", {})))
        data = {"lowest_kprime_types": [[str(w) for w in kt.weights] for kt in result]}
        return Report("ktype", data, _ktype_text)
    raise SchemaError("$.query.op", f"unknown op {op!r}; use degree, harmonics, or catalog")


def _ktype_text(d):
    if "degree" in d:
        yield f"deg = {d['degree']}"
    if "kprime" in d:
        yield "K'-type: (" + ", ".join(d["kprime"]) + ")"
    for weights in d.get("lowest_kprime_types", ()):
        yield "(" + ", ".join(weights) + ")"


def cmd_residual(args) -> Report:
    sc = _load(args)
    sc.validate()
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    # id(member) -> rendering, each distinct member object rendered once; cons keeps every member alive
    shown = {key: render(d) for key, d in {id(d): d for c in cons for _, d in c.descriptor}.items()}
    data = {"count": len(cons), "constituents": Encoded(functools.partial(_residual_json, cons, shown))}
    return Report("residual", data, functools.partial(_residual_text, cons=cons, shown=shown, verbose=args.verbose))


def _residual_json(cons, shown) -> str:
    """residual's "constituents" array as reports.dumps would lay it out; shown maps id(member) -> rendering."""
    encoded = functools.cache(encode_basestring)  # a support and a family repeat across constituents
    member_entry = functools.cache(lambda pid, key: entry(pid, shown[key]))  # encoded once per (place, member)
    parts = []
    for c in cons:
        members = [member_entry(pid, id(d)) for pid, d in c.descriptor]
        members = "{" + ",".join(members) + MAP_END if members else "{}"
        parts.append(
            f'{OBJECT}{FIELD}"name": {encode_basestring(c.name)},{FIELD}"support": {encoded(c.support)},'
            f'{FIELD}"family": {encoded(c.family)},{FIELD}"members": {members}{OBJECT_END}'
        )
    return array(parts)


def _residual_text(d, cons, shown, verbose):
    yield f"{d['count']} residual constituents"
    for c in cons:
        yield f"  [{c.support}] {c.name}  ({c.family})"
        if verbose:
            for pid, member in c.descriptor:
                yield f"      {pid}: {shown[id(member)]}"


def cmd_export_tables(args) -> Report:
    data = tables.export_all()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dumps(data))
        except OSError as exc:
            raise SchemaError("$", f"cannot write {args.output!r}: {exc.strerror or exc}") from None
    return Report("export-tables", data, functools.partial(_export_tables_text, output=args.output))


def _export_tables_text(d, output):
    return [f"tables written to {output}" if output else dumps(d)]


def cmd_self_test(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    enumerated = len(enumerate_constituents(phi, sc.places))
    oracle = brute_force_count(phi, sc.places)
    if enumerated != oracle:
        raise ScenarioValidationError(f"self-test mismatch: enumerated {enumerated}, oracle {oracle}")
    data = {"enumerated": enumerated, "oracle": oracle, "ok": True}
    return Report("self-test", data, _self_test_text)


def _self_test_text(d):
    return [
        f"enumerate_constituents: {d['enumerated']}",
        f"brute_force_count:      {d['oracle']}",
        "self-test: OK",
    ]


COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "component-group": cmd_component_group,
    "enumerate": cmd_enumerate,
    "packet": cmd_packet,
    "correspond": cmd_correspond,
    "reduce": cmd_reduce,
    "ktype": cmd_ktype,
    "residual": cmd_residual,
    "export-tables": cmd_export_tables,
    "self-test": cmd_self_test,
}


# the options each subcommand reads besides --format; main refuses any other as a schema error
OPTIONS = {
    **dict.fromkeys(("validate", "classify", "component-group", "self-test"), ("scenario",)),
    **dict.fromkeys(("enumerate", "residual"), ("scenario", "verbose")),
    "packet": ("scenario", "place"),
    **dict.fromkeys(("correspond", "reduce", "ktype"), ("query",)),
    "export-tables": ("output",),
}
_ARGUMENTS = {
    "scenario": (("--scenario",), {"help": "path to a scenario JSON file"}),
    "verbose": (("--verbose",), {"action": "store_true"}),
    "place": (("--place",), {"help": "place id"}),
    "query": (("--query",), {"help": "JSON query string, or @file"}),
    "output": (("--output", "-o"), {"help": "output file"}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(
        prog="mp4spectrum",
        description="Symbolic calculator for the discrete spectrum of Mp(4)",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for option in OPTIONS[name]:
            flags, kwargs = _ARGUMENTS[option]
            p.add_argument(*flags, **kwargs)
    return ap


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    try:
        if unread:
            raise SchemaError("$", f"{args.command} does not read {unread[0]!r}")
        report = COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ScenarioValidationError, InvalidParameter, MissingSignData) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        UnsupportedShape,
        UnsupportedInduction,
        RowNotFound,
        UncataloguedShape,
        NotInHarmonics,
        ScenarioTooLarge,
    ) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(report.emit(args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
