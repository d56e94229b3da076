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
and residual are ``Encoded`` pieces, which ``reports.dumps`` joins with the
rest of the report under ``--format json``.  enumerate lists its tuples
once, in the form asked for: under ``--format text`` its "constituents"
are the pieces of the text lines.  The report is written in slices
of ``SLICE`` characters, so the output is held once as text and never whole
as bytes.

``parse_args`` reads argv as the argparse parser it replaced did, from
``OPTIONS`` and ``_ARGUMENTS``, in about 0.04 ms; importing argparse and
building that parser cost a fresh CLI child 6-14 ms (Python 3.11.7 on a
2-vCPU VM).

Exit codes: 0 success, 2 validation failure, 3 unsupported shape, 4 schema error
(a usage error, or an option the subcommand does not read, per ``OPTIONS``, is one too).
"""

from __future__ import annotations

import functools
import re
import sys
from json.encoder import encode_basestring
from types import SimpleNamespace

from . import tables
from .descriptors import render, sign_str
from .ktypes import NotInHarmonics, UncataloguedShape
from .multiplicity import ScenarioTooLarge, brute_force_count, enumerate_constituents, listed_tuples
from .multiplicity import local_data, prepare_local_data
from .packets import RowNotFound, UnsupportedInduction, UnsupportedShape
from .parameters import InvalidParameter, MissingSignData, classify, epsilon_tilde
from .reports import FIELD, MAP_END, OBJECT, OBJECT_END, Encoded, Report, array, dumps, entry
from .residual import residual_spectrum
from .scenario import ScenarioValidationError, SchemaError, _shown, load_scenario

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
    locals_ = prepare_local_data(phi, sc.places)
    # the label and member at a place are functions of the local character
    # there, so each (place, character) pair is rendered once
    places = [
        (ld.place.id, [e.label.sign_label for e in ld.entries], [render(e.member) for e in ld.entries])
        for ld in locals_
    ]
    json_form = args.format == "json"
    rows, tails = (_constituents_json if json_form else _constituents_text)(places)
    laid, n = listed_tuples(phi, locals_, rows, tails, args.verbose), len(places)
    count = laid[2 * n :: 2 * n + 1].count(tails[0])  # a tuple's tail follows its 2n pieces
    # dumps pops the pieces, so they are not held beside the joined report
    # (which costs about 0.2 times the output); the report is emitted once
    data = {"count": count, "constituents": Encoded([array(laid)].pop) if json_form else laid}
    return Report("enumerate", data, functools.partial(_enumerate_text, n=n, verbose=args.verbose))


def _constituents_json(places) -> tuple:
    """The rows and tails that listed_tuples lays enumerate's "constituents" objects down from, in dumps' layout.

    A constituent is its places' eta entries, then their member entries,
    then its tail: the first place's entry opens each map.
    """
    heads = [(f'{OBJECT}{FIELD}"eta": {{', f'{MAP_END},{FIELD}"members": {{')] + [(",", ",")] * len(places)
    rows = [
        [(eta + entry(pid, t), member + entry(pid, m)) for t, m in zip(labels, shown)]
        for (eta, member), (pid, labels, shown) in zip(heads, places)
    ]
    return rows, tuple(f'{MAP_END},{FIELD}"vanishing": {v}{OBJECT_END}' for v in ("false", "true"))


def _constituents_text(places) -> tuple:
    """The rows and tails that listed_tuples lays the text form's constituents down from: labels, members, flag."""
    rows = [[(f"{pid}:{t}", f"      {pid}: {m}") for t, m in zip(labels, shown)] for pid, labels, shown in places]
    return rows, ("", "  [vanishing member]")


def _enumerate_text(d, n, verbose):
    yield f"{d['count']} constituents"
    lines = d["constituents"]
    for i in range(0, len(lines), 2 * n + 1):
        yield "  " + " ".join(lines[i : i + n]) + lines[i + 2 * n]
        if verbose:
            yield from lines[i + n : i + 2 * n]


def cmd_packet(args) -> Report:
    sc = _load(args)
    sc.validate()
    phi = _need_parameter(sc)
    if not args.place:
        raise SchemaError("$", "packet needs --place <id>")
    try:
        place = sc.place(args.place)
    except KeyError:
        raise SchemaError("$.place", f"unknown place {_shown(args.place)}") from None
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
    return tables.read_query(args.query)


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
    result = tables.reduction_from_query(_query_of(args))
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


def cmd_ktype(args) -> Report:
    return Report("ktype", tables.ktype_from_query(_query_of(args)), _ktype_text)


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


def _residual_json(cons, shown) -> list:
    """The pieces of residual's "constituents" array as dumps would lay it out; shown maps id(member) -> rendering."""
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
                _write(fh, dumps(data), end="")
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


# the options each subcommand reads besides --format; parse_args refuses any other as a schema error
OPTIONS = {
    **dict.fromkeys(("validate", "classify", "component-group", "self-test"), ("scenario",)),
    **dict.fromkeys(("enumerate", "residual"), ("scenario", "verbose")),
    "packet": ("scenario", "place"),
    **dict.fromkeys(("correspond", "reduce", "ktype"), ("query",)),
    "export-tables": ("output",),
}
# option -> (its flags, help text)
_ARGUMENTS = {
    "help": (("-h", "--help"), "print this list"),
    "format": (("--format",), "text (the default) or json"),
    "scenario": (("--scenario",), "path to a scenario JSON file"),
    "verbose": (("--verbose",), "show more: vanishing tuples, or each constituent's members"),
    "place": (("--place",), "place id"),
    "query": (("--query",), "JSON query string, or @file"),
    "output": (("--output", "-o"), "output file"),
}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a word, as one with a space is, though it starts with "-"


def _flag(token: str, flags: dict):
    """None for a word, else (its option, None if unknown; the flag; the joined value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    if token[1] == "-":  # a long flag or a unique prefix of one (no flag is a prefix of another): --scen, --form=json
        found = [f for f in flags if f.startswith(head)]
        if len(found) > 1:
            raise SchemaError("$", f"ambiguous option {token!r}")
        if found:
            return flags[found[0]], found[0], value if eq else None
    elif token[:2] in flags:  # -o FILE, -oFILE, -o=FILE
        return flags[token[:2]], token[:2], value if eq and head == token[:2] else token[2:] or None
    return None if " " in token or _NUMBER.match(token) else (None, token, None)


def parse_args(argv: list) -> SimpleNamespace:
    """The subcommand and its option values, read from argv as the argparse parser this replaces read them.

    Before the subcommand only -h is read.  After it: --flag value, --flag=value, -oFILE and a unique prefix
    of a long flag (--scen); the last of a repeated option wins.  An unknown option, a stray word and all
    from "--" on are unread, and the first of them is refused.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    options, values, unread = ("help",), {}, []
    flags = {"-h": "help", "--help": "help"}
    reads = [_flag(t, flags) for t in argv[:end]]
    j = 0
    while j < end:
        read, token = reads[j], argv[j]
        j += 1
        if read is None and not values:  # the subcommand: read the rest with its options
            if token not in COMMANDS:
                raise SchemaError("$", f"unknown subcommand {token!r}; use one of {', '.join(COMMANDS)}")
            options = ("help", "format", *OPTIONS[token])
            flags = {flag: option for option in options for flag in _ARGUMENTS[option][0]}
            reads[j:] = [_flag(t, flags) for t in argv[j:end]]
            values = {"command": token, "format": "text", **{o: False if o == "verbose" else None for o in options[2:]}}
            continue
        name, flag, value = read or (None, token, None)
        following = argv[j] if j < end and reads[j] is None else None  # a word, which a flag may take
        if name is None:
            unread.append(token)
        elif name in ("help", "verbose") and value is not None and (flag[1] == "-" or not value):
            raise SchemaError("$", f"{flag} takes no value")
        elif name == "help":
            for k, c in enumerate(value or ""):  # -hX reads X as more short flags: -hh, -ho FILE
                if flags.get("-" + c) == "output":
                    if not value[k + 1 :] and following is None:
                        raise SchemaError("$", "-o needs a value")
                    break
                if flags.get("-" + c) != "help":
                    raise SchemaError("$", f"-h takes no value {value!r}")
            if values:
                lines = (f"  {', '.join(_ARGUMENTS[o][0]):18} {_ARGUMENTS[o][1]}" for o in options)
                print(f"usage: mp4spectrum {values['command']} [options]", *lines, sep="\n")
            else:
                print("usage: mp4spectrum <subcommand> [options]", *(__doc__ or "").split("\n\n")[1:2], sep="\n")
            raise SystemExit(0)
        elif name == "verbose":
            values[name] = True
        else:
            if value is None:
                if following is None:
                    raise SchemaError("$", f"{flag} needs a value")
                value = following
                j += 1
            if value == "--":  # argparse dropped a joined "--", leaving an empty list, which main reads as no value
                value = []
            elif name == "format" and value not in ("text", "json"):
                raise SchemaError("$", f"--format is text or json, not {value!r}")
            values[name] = value
    if not values:
        raise SchemaError("$", f"name a subcommand, one of {', '.join(COMMANDS)}")
    unread += argv[end:]
    if unread:
        raise SchemaError("$", f"{values['command']} does not read {unread[0]!r}")
    return SimpleNamespace(**values)


# characters per write: 16-256 KiB slices gave the same peak RSS on a 4.4 MB enumerate, 1 MiB and more a higher one
SLICE = 1 << 16


def _write(fh, text: str, end: str = "\n") -> None:
    """Write text, then end, to fh in slices, so that fh never encodes the whole text at once."""
    for k in range(0, len(text), SLICE):
        fh.write(text[k : k + SLICE])
    fh.write(end)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
    _write(sys.stdout, report.emit(args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
