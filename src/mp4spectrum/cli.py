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

Exit codes: 0 success, 2 validation failure, 3 unsupported shape, 4 schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import tables
from .descriptors import render
from .fields import ReciprocityViolation
from .ktypes import (
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
from .localization import localize
from .multiplicity import ScenarioTooLarge, brute_force_count, enumerate_constituents
from .packets import (
    RowNotFound,
    UnsupportedInduction,
    UnsupportedShape,
    local_packet,
    reducibility_oracle,
)
from .parameters import InvalidParameter, MissingSignData, classify, component_group, epsilon_tilde
from .reports import Report
from .residual import residual_spectrum
from .scenario import (
    ScenarioValidationError,
    SchemaError,
    _as_fraction,
    _as_int,
    _as_list,
    _as_object,
    _as_sign,
    _require,
    load_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_SCHEMA = 4


def _sign_str(s: int) -> str:
    return "+" if s == 1 else "-"


def _label_str(values) -> str:
    return "(" + ",".join(_sign_str(v) for v in values) + ")"


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
    rep = Report("validate")
    recip = sc.reciprocity_report()
    rep.data["reciprocity"] = {
        "ok": recip.ok,
        "checked_pairs": recip.checked_pairs,
        "violation": list(recip.violation) if recip.violation else None,
    }
    if not recip.ok:
        a, b, prod = recip.violation
        rep.say(f"FAIL reciprocity: pair ({a}, {b}) has product {prod:+d}")
        raise ReciprocityViolation(a, b, prod)
    sc.validate()
    rep.data["places"] = [{"id": p.id, "kind": p.kind} for p in sc.places]
    rep.data["elements"] = sorted(e.name for e in sc.elements)
    rep.data["ok"] = True
    rep.say(f"reciprocity: OK ({recip.checked_pairs} ordered pairs)")
    rep.say(f"cuspidal sign products: OK ({len(sc.cuspidal)} data)")
    rep.say("scenario is valid")
    return rep


def cmd_classify(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    ptype = classify(phi)
    eps = epsilon_tilde(phi)
    rep = Report("classify")
    rep.data["type"] = ptype.value
    rep.data["epsilon_tilde"] = {
        lab: _sign_str(v) for lab, v in zip(eps.group.basis, eps.values)
    }
    rep.say(f"parameter type: {ptype.value}")
    for lab, v in zip(eps.group.basis, eps.values):
        rep.say(f"  eps~({lab}) = {v:+d}")
    return rep


def cmd_component_group(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    group = component_group(phi)
    eps = epsilon_tilde(phi)
    rep = Report("component-group")
    rep.data["basis"] = list(group.basis)
    rep.data["rank"] = group.rank
    rep.data["epsilon_tilde"] = [_sign_str(v) for v in eps.values]
    rep.say(f"S_phi is free of rank {group.rank} on {', '.join(group.basis)}")
    rep.say("eps~ = " + _label_str(eps.values))
    locs = {}
    for p in sorted(sc.places, key=lambda p: p.id):
        lp, g, iota = localize(phi, p)
        locs[p.id] = {
            "rank": g.rank,
            "characters": g.order(),
            "map": [list(r) for r in iota.rows],
        }
        rep.say(f"  at {p.id}: local rank {g.rank}, {g.order()} characters")
    rep.data["localizations"] = locs
    return rep


def cmd_enumerate(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    cons = enumerate_constituents(phi, sc.places, include_vanishing=args.verbose)
    rep = Report("enumerate")
    shown = []
    count = 0
    # the member at a place is a function of the local character there, so
    # each (place, character) pair is rendered once per call
    rendered = {}
    for c in cons:
        eta, members = {}, {}
        for (pid, vals), (_, d) in zip(c.eta.signs(), c.local_members):
            key = (pid, vals)
            if key not in rendered:
                rendered[key] = (_label_str(vals), render(d))
            eta[pid], members[pid] = rendered[key]
        vanishing = c.has_zero_member
        shown.append({"eta": eta, "members": members, "vanishing": vanishing})
        if not vanishing:
            count += 1
    rep.data["count"] = count
    rep.data["constituents"] = shown
    rep.say(f"{count} constituents")
    for entry in shown:
        eta = " ".join(f"{pid}:{lab}" for pid, lab in sorted(entry["eta"].items()))
        flag = "  [vanishing member]" if entry["vanishing"] else ""
        rep.say(f"  {eta}{flag}")
        if args.verbose:
            for pid, d in sorted(entry["members"].items()):
                rep.say(f"      {pid}: {d}")
    return rep


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
    lp, group, _ = localize(phi, place)
    entries = local_packet(lp)
    rep = Report("packet")
    rep.data["place"] = place.id
    rep.data["kind"] = place.kind
    rep.data["entries"] = [
        {
            "label": _label_str(e.label.values),
            "member": render(e.member),
            "in_l_packet": e.in_l_packet,
            "zero": e.is_zero,
        }
        for e in entries
    ]
    rep.say(f"packet at {place.id} ({place.kind}):")
    for e in entries:
        mark = " *L" if e.in_l_packet else ""
        rep.say(f"  {_label_str(e.label.values)}  {render(e.member)}{mark}")
    return rep


def _query_of(args) -> dict:
    if not args.query:
        raise SchemaError("$", "this subcommand needs --query '<json>'")
    text = args.query
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        q = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$.query", f"invalid JSON: {exc}") from None
    if not isinstance(q, dict):
        raise SchemaError("$.query", "query must be an object")
    return q


def cmd_correspond(args) -> Report:
    q = _query_of(args)
    row = tables.shimura_row_from_query(q)
    rep = Report("correspond")
    rep.data["row"] = row.name
    rep.data["entries"] = [
        {
            "label": _label_str(e.label),
            "mp": render(e.mp),
            "so_space": f"V2{_sign_str(e.so_space)}",
            "so": render(e.so),
        }
        for e in row.entries
    ]
    rep.say(f"row: {row.name}")
    for e in row.entries:
        rep.say(f"  {_label_str(e.label)}  Mp: {render(e.mp)}")
        rep.say(f"          SO(V2{_sign_str(e.so_space)}): {render(e.so)}")
    # round-trip check: SO descriptor -> label -> Mp member, must be a bijection
    for e in row.entries:
        lab, mp = row.to_mp(e.so)
        assert lab == e.label and mp == e.mp
    rep.data["round_trip"] = "ok"
    rep.say("round trip: ok")
    return rep


# the inducing data each (group, parabolic) pair of the oracle reads
_REDUCE_NEEDS = {
    ("Mp4", "P1"): ("chi", "s", "inner"),
    ("Mp4", "P2"): ("tau", "s"),
    ("SO5+", "Q1"): ("chi", "s", "inner"),
    ("SO5+", "Q2"): ("tau", "s"),
    ("SO5-", "Q1"): ("chi", "s", "inner"),
}


def cmd_reduce(args) -> Report:
    q = _query_of(args)
    group = str(q.get("group", "Mp4"))
    parabolic = str(q.get("parabolic", "P1"))
    kwargs = {}
    if "chi" in q:
        kwargs["char"] = tables.char_from_query(q["chi"])
    if "s" in q:
        kwargs["s"] = _as_fraction(q["s"], "$.query.s")
    if "inner" in q:
        kwargs["inner"] = tables.descriptor_from_query(q["inner"])
    if "tau" in q:
        kwargs["tau"] = tables.gl2_from_query(q["tau"])
    if "omega_trivial" in q:
        kwargs["omega_trivial"] = bool(q["omega_trivial"])
    if "self_dual" in q:
        kwargs["self_dual"] = bool(q["self_dual"])
    for key in _REDUCE_NEEDS.get((group, parabolic), ()):
        _require(q, key, "$.query")
    result = reducibility_oracle(group, parabolic, **kwargs)
    rep = Report("reduce")
    rep.data["reducible"] = result.reducible
    rep.data["direct_sum"] = result.direct_sum
    rep.data["constituents"] = [render(c) for c in result.constituents]
    if not result.reducible:
        rep.say("irreducible")
    elif result.direct_sum:
        rep.say("direct sum:")
        for c in result.constituents:
            rep.say(f"  (+) {render(c)}")
    else:
        rep.say("composition series (sub, then quotient):")
        for c in result.constituents:
            rep.say(f"  {render(c)}")
    return rep


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
    rep = Report("ktype")
    if op == "degree" or op == "harmonics":
        mu = _ktype_o(q)
        rep.data["degree"] = degree_o(mu)
        rep.say(f"deg = {degree_o(mu)}")
        if op == "harmonics":
            mp = joint_harmonics(mu, _as_int(q.get("n", 2), "$.query.n"))
            rep.data["kprime"] = [str(w) for w in mp.weights]
            rep.say("K'-type: (" + ", ".join(str(w) for w in mp.weights) + ")")
        return rep
    if op == "catalog":
        result = lowest_kprime_catalog(_catalog_query(q.get("query", {})))
        rep.data["lowest_kprime_types"] = [[str(w) for w in kt.weights] for kt in result]
        for kt in result:
            rep.say("(" + ", ".join(str(w) for w in kt.weights) + ")")
        return rep
    raise SchemaError("$.query.op", f"unknown op {op!r}; use degree, harmonics, or catalog")


def cmd_residual(args) -> Report:
    sc = _load(args)
    sc.validate()
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    rep = Report("residual")
    rep.data["count"] = len(cons)
    rep.data["constituents"] = [c.rendered() for c in cons]
    rep.say(f"{len(cons)} residual constituents")
    for c in cons:
        rep.say(f"  [{c.support}] {c.name}  ({c.family})")
        if args.verbose:
            for pid, d in c.descriptor:
                rep.say(f"      {pid}: {render(d)}")
    return rep


def cmd_export_tables(args) -> Report:
    data = tables.export_all()
    rep = Report("export-tables")
    rep.data.update(data)
    rep.say(json.dumps(data, indent=2, ensure_ascii=False))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, ensure_ascii=False)
        rep.lines = [f"tables written to {args.output}"]
    return rep


def cmd_self_test(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    cons = enumerate_constituents(phi, sc.places)
    oracle = brute_force_count(phi, sc.places)
    rep = Report("self-test")
    rep.data["enumerated"] = len(cons)
    rep.data["oracle"] = oracle
    rep.data["ok"] = len(cons) == oracle
    rep.say(f"enumerate_constituents: {len(cons)}")
    rep.say(f"brute_force_count:      {oracle}")
    if len(cons) != oracle:
        rep.say("MISMATCH")
        raise ScenarioValidationError(
            f"self-test mismatch: enumerated {len(cons)}, oracle {oracle}"
        )
    rep.say("self-test: OK")
    return rep


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
        p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--place", help="place id (packet)")
        p.add_argument("--query", help="JSON query string, or @file (correspond/reduce/ktype)")
        p.add_argument("--output", "-o", help="output file (export-tables)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ScenarioValidationError, ReciprocityViolation, InvalidParameter, MissingSignData) as exc:
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
