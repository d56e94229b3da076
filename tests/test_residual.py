"""Residual spectrum enumeration and its cross-checks."""

import itertools
import json
import math
import os
import sys

import pytest

from mp4spectrum import descriptors, localization, packets, parameters
from mp4spectrum.cli import main
from mp4spectrum.descriptors import render
from mp4spectrum.fields import KINDS, GlobalElement, Place, minus_one_element, trivial_element
from mp4spectrum.localization import LocalParam, ShHPS, ShPrincipal, localize
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.packets import designated_key, local_packet
from mp4spectrum.parameters import (
    AParameter,
    CuspidalDatum,
    InvalidParameter,
    ParamType,
    RhoIrreducibleSymplectic,
    RhoRealDiscrete,
    classify,
    rho_is_irreducible,
)
from mp4spectrum.record import FrozenMap, Record
from mp4spectrum.residual import Mp2CuspidalWeil, _sign_vectors, residual_spectrum
from mp4spectrum.scenario import load_scenario, scenario_from_dict
from mp4spectrum.tables import _sample_shapes

from conftest import make_places
from golden_calls import FIXTURE_NAMES, FIXTURES, SCENARIOS, load_scengen


def _base():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4", "real", "real"])
    one = trivial_element(places)
    m1 = minus_one_element(places)
    t = GlobalElement(
        "t",
        FrozenMap({
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("1"),
            "v3": places[2].class_from_label("-1"),
            "v4": places[3].class_from_label("-1"),
        }),
    )
    return places, [one, m1, t]


def test_borel_families_enumerated():
    places, elements = _base()
    cons = residual_spectrum(places, elements, [], [])
    names = {c.name for c in cons}
    # one principal constituent per character, one HPS one per unordered pair
    assert {f"B-pr[{e.name}]" for e in elements} <= names
    assert "B-HPS[-1,t]" in names and "B-HPS[1,t]" in names
    assert len([c for c in cons if c.support == "B"]) == 3 + 3


def test_tags_classify_correctly():
    places, elements = _base()
    w = Mp2CuspidalWeil("piw", "t", frozenset({"v1", "v3"}))
    cons = residual_spectrum(places, elements, [], [w])
    for c in cons:
        assert classify(c.parameter).value == c.family


def test_weil_rep_validation():
    places, elements = _base()
    pids = {p.id for p in places}
    names = {e.name for e in elements}
    with pytest.raises(InvalidParameter):
        Mp2CuspidalWeil("w", "t", frozenset()).validate(pids, names)
    with pytest.raises(InvalidParameter):
        Mp2CuspidalWeil("w", "t", frozenset({"v1"})).validate(pids, names)
    with pytest.raises(InvalidParameter):
        Mp2CuspidalWeil("w", "nope", frozenset({"v1", "v2"})).validate(pids, names)
    with pytest.raises(InvalidParameter):
        Mp2CuspidalWeil("w", "t", frozenset({"v1", "zzz"})).validate(pids, names)


def test_hps_excluded_when_classes_collide_on_s():
    places, elements = _base()
    # t and -1 agree at v3; a Weil rep of type t with v3 in S(pi) blocks the pair (-1, t)
    w = Mp2CuspidalWeil("piw", "t", frozenset({"v1", "v3"}))
    names = {c.name for c in residual_spectrum(places, elements, [], [w])}
    assert "P1-HPS[1,t;piw]" in names
    assert "P1-HPS[-1,t;piw]" not in names
    # with S(pi) away from the collision the pair is allowed
    w2 = Mp2CuspidalWeil("piw2", "t", frozenset({"v1", "v2"}))
    names2 = {c.name for c in residual_spectrum(places, elements, [], [w2])}
    assert "P1-HPS[-1,t;piw2]" in names2


def _sk_datum(places, l_half):
    return CuspidalDatum(
        "rho",
        2,
        "symplectic",
        1,
        FrozenMap({
            "v1": RhoIrreducibleSymplectic("sc1", -1, FrozenMap({"u": -1, "p": 1, "up": -1})),
            "v2": RhoIrreducibleSymplectic("sc2", -1, FrozenMap({"u": 1, "p": 1, "up": 1})),
            "v3": RhoRealDiscrete(2),
            "v4": RhoRealDiscrete(2),
        }),
        twisted_roots=FrozenMap({"t": 1, "1": 1}),
        l_half_nonzero=FrozenMap(l_half),
    )


def test_sk_family_requires_central_l_value():
    places, elements = _base()
    rho = _sk_datum(places, {"t": True})
    cons = residual_spectrum(places, elements, [rho], [])
    sk = [c for c in cons if c.family == "saito-kurokawa"]
    assert sk and all("[t;rho" in c.name for c in sk)
    # rank-1 members: sign patterns over the irreducible places multiply to the root number
    assert len(sk) == 8  # 2^4 patterns / parity constraint
    rho0 = _sk_datum(places, {"t": False})
    cons0 = residual_spectrum(places, elements, [rho0], [])
    assert not [c for c in cons0 if c.family == "saito-kurokawa"]


def test_p2_family_needs_dihedral_data():
    places, elements = _base()
    cons = residual_spectrum(places, elements, [_sk_datum(places, {})], [])
    assert not [c for c in cons if c.support == "P2"]


def _eta_lookup(phi, places):
    table = {}
    for p in places:
        lp, group, _ = localize(phi, p)
        for e in local_packet(lp):
            table[(p.id, repr(e.member))] = e.label.values
    return table


@pytest.mark.parametrize("family", ["principal", "howe-piatetski-shapiro"])
def test_residual_members_appear_in_enumeration(family):
    # every principal / HPS residual constituent matches an eta from the
    # discrete-spectrum enumeration, descriptor by descriptor
    places, elements = _base()
    w = Mp2CuspidalWeil("piw", "t", frozenset({"v1", "v3"}))
    cons = [
        c
        for c in residual_spectrum(places, elements, [], [w])
        if c.family == family
    ]
    assert cons
    for c in cons:
        lookup = _eta_lookup(c.parameter, places)
        eta_signs = tuple(
            (pid, lookup[(pid, repr(member))]) for pid, member in c.descriptor
        )
        spectrum = {
            tuple(cc.eta.signs()): {pid: repr(m) for pid, m in cc.local_members}
            for cc in enumerate_constituents(c.parameter, places)
        }
        assert eta_signs in spectrum
        assert spectrum[eta_signs] == {pid: repr(m) for pid, m in c.descriptor}


def _record_calls(monkeypatch, module, name, results=None):
    """Wrap every mp4spectrum binding of module.name; return the list of call arguments.

    ``from .x import y`` copies the name into each importing module, so
    each copy is replaced.  Each call's result is appended to ``results``
    when a list is given.
    """
    original = getattr(module, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        result = original(*args)
        if results is not None:
            results.append(result)
        return result

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "mp4spectrum" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def _distinct(values) -> list:
    """values without repeats, in first-seen order."""
    return list(dict.fromkeys(values))


def _placeless(value):
    """value with every Place in it replaced by its kind.

    Local packets and members see a place only through its kind, so two
    local parameters with equal placeless forms have equal packets.
    """
    if isinstance(value, Place):
        return value.kind
    if isinstance(value, Record):
        return (type(value), *(_placeless(getattr(value, name)) for name in value.__record_fields__))
    if isinstance(value, tuple):
        return tuple(map(_placeless, value))
    return value


def test_residual_builds_each_local_parameter_once(monkeypatch):
    # the generated scenario has constituents of all six families and two
    # places of each of its two kinds; B-pr and P1-pr, B-HPS and P1-HPS,
    # the P1-SK sign vectors, parameters of elements with equal classes at
    # a place, and equal local data at places of one kind share local
    # parameters.  Local work is keyed by kind and local data, so no local
    # data is localized twice, except that a Soudry split place repeats an
    # HPS pair's local data under its own key (the two share one member)
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    assert len({p.kind for p in sc.places}) < len(sc.places)
    original = localization.localize
    localized = _record_calls(monkeypatch, localization, "localize")
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    assert {c.name.split("[")[0] for c in cons} == {"B-pr", "B-HPS", "P2", "P1-pr", "P1-SK", "P1-HPS"}
    built = [(classify(phi), _placeless(original(phi, place)[0])) for phi, place in localized]
    repeats = [{t1, t2} for (t1, a), (t2, b) in itertools.combinations(built, 2) if a == b]
    assert all(pair == {ParamType.SOUDRY, ParamType.HOWE_PS} for pair in repeats)
    # every (parameter, place) slot is covered by value
    lps = {lp for _, lp in built}
    slots = {(c.parameter.basis_labels(), p.id): original(c.parameter, p)[0] for c in cons for p in sc.places}
    assert {_placeless(lp) for lp in slots.values()} <= lps
    # and sharing across places of one kind builds fewer than one per distinct place-bound local parameter
    assert len(built) < len(set(slots.values())) < len(slots)


def _member_slots(sc, cons, localize_, designate):
    """(constituent, local parameter, member, reads the designated member) per constituent and place.

    A slot reads the designated member when its member equals it: B and P2
    always do, and a P1 slot does exactly at the all-plus label, since the
    members of one packet differ.
    """
    place = {p.id: p for p in sc.places}
    slots = []
    for c in cons:
        for pid, d in c.descriptor:
            lp = localize_(c.parameter, place[pid])[0]
            slots.append((c, lp, d, d == designate(lp)))
    return slots


def test_residual_builds_each_packet_once(monkeypatch):
    # no packet is built whole: one member is built at most once per local
    # data and label, only where some P1 constituent reads that label, never
    # at the all-plus label (that is the designated member), and it is the
    # local_packet entry at that label
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    whole = _record_calls(monkeypatch, packets, "local_packet")
    entries = []
    calls = _record_calls(monkeypatch, packets, "packet_entry", entries)
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    assert not whole
    built = [(_placeless(lp), label) for lp, label, _ in calls]
    assert built == _distinct(built) and all(label for _, label in built)
    for (lp, label, group), entry in zip(calls, entries):
        assert entry == next(e for e in local_packet(lp) if e.label.bits == label)
        assert entry.label.group is group  # the LocalData's own group, not one built again
    # the label a slot reads is the one of its member in the local packet, whose members differ
    slots = _member_slots(sc, cons, localize_, designate)
    reads = [(lp, d) for c, lp, d, all_plus in slots if c.support == "P1" and not all_plus]
    labels = [next(e.label.bits for e in local_packet(lp) if e.member == d) for lp, d in reads]
    assert set(built) == {(_placeless(lp), label) for (lp, _), label in zip(reads, labels)}
    assert len(built) < len({(lp, label) for (lp, _), label in zip(reads, labels)}) < len(reads)
    assert {id(d) for _, d in reads} == {id(e.member) for e in entries}
    assert all(c.support == "P1" for c, _, _, all_plus in slots if not all_plus)


def test_residual_builds_each_designated_member_once(monkeypatch):
    # B-pr and B-HPS parameters of different elements, and places of one
    # kind, often share the labels a designated member is built from, and a
    # P1 constituent reads the designated member at each all-plus place; it
    # is built once per designated key and shared
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    calls = _record_calls(monkeypatch, packets, "designated_l_packet_member")
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    built = [designated_key(lp) for (lp,) in calls]
    reads = [(c, lp, d) for c, lp, d, all_plus in _member_slots(sc, cons, localize_, designate) if all_plus]
    assert len(built) == len(set(built))
    assert set(built) == {designated_key(lp) for _, lp, _ in reads}
    assert len(built) < len({lp for _, lp, _ in reads}) < len(reads)
    assert len({id(d) for _, _, d in reads}) == len(built)
    # P1 reads designated keys that no B or P2 constituent reaches, and builds their members too
    assert len(built) > len({designated_key(lp) for c, lp, _ in reads if c.support != "P1"})


def test_p1_all_plus_member_is_the_designated_member(monkeypatch):
    # the designated member equals the all-plus packet entry, so P1 shares
    # the object B and P2 read, and the render memo renders it once
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    members = []
    built = _record_calls(monkeypatch, packets, "designated_l_packet_member", members)
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    designated = {designated_key(lp): m for (lp,), m in zip(built, members)}
    slots = _member_slots(sc, cons, localize_, designate)
    p1_all_plus = [(lp, d) for c, lp, d, all_plus in slots if all_plus and c.support == "P1"]
    assert p1_all_plus
    assert all(d is designated[designated_key(lp)] for lp, d in p1_all_plus)


def test_residual_renders_each_member_once(monkeypatch, capsys):
    path = os.path.join(SCENARIOS, "residual_wide_1_06.json")
    shown = _record_calls(monkeypatch, descriptors, "render")
    assert main(["residual", "--scenario", path, "--format", "json"]) == 0
    rendered = [id(d) for (d,) in shown]
    assert len(rendered) == len(set(rendered))
    members = json.loads(capsys.readouterr().out)["constituents"]
    assert len(rendered) < sum(len(c["members"]) for c in members)


def _flag_plus_twists(doc: dict) -> dict:
    """doc with L(1/2, rho x chi) != 0 declared wherever rho's twisted root by chi is +1."""
    names = [e.name for e in scenario_from_dict(doc).elements]
    for datum in doc.get("cuspidal", []):
        if datum["duality"] == "symplectic" and datum["gl_rank"] == 2:
            twisted = datum.get("twisted_roots", {})
            datum["l_half_nonzero"] = {n: True for n in names if twisted.get(n, 1) == 1}
    return doc


def _sk_names_by_filtered_walk(sc) -> list:
    """The P1-SK names of residual_spectrum, listed by walking all 2^k sign vectors."""
    places = sorted(sc.places, key=lambda p: p.id)
    names = []
    for rho in sorted(sc.cuspidal, key=lambda d: d.name):
        if rho.duality != "symplectic" or rho.gl_rank != 2:
            continue
        for chi in sorted(sc.elements, key=lambda e: e.name):
            if not rho.l_half_nonzero.get(chi.name, False):
                continue
            irr = [p.id for p in places if rho_is_irreducible(rho.local[p.id])]
            for signs in itertools.product((1, -1), repeat=len(irr)):
                if math.prod(signs) == rho.global_root:
                    eps = dict(zip(irr, signs))
                    sig = "".join("+" if eps.get(p.id, 1) == 1 else "-" for p in places)
                    names.append(f"P1-SK[{chi.name};{rho.name};{sig}]")
    return names


def test_sign_vectors_are_the_filtered_product():
    # k = 0 included: one empty vector for root +1, none for -1
    for k in range(8):
        for root in (1, -1):
            walked = [s for s in itertools.product((1, -1), repeat=k) if math.prod(s) == root]
            assert _sign_vectors(k, root) == walked


def test_sk_constituents_match_the_filtered_walk():
    # every generated residual-wide input of seeds 1-3, and the Saito-Kurokawa
    # fixtures with every +1 twisted root flagged
    scengen = load_scengen()
    docs = [doc for seed in (1, 2, 3) for _, doc in scengen.residual_scenarios(seed)]
    for name in ("sk.json", "sk_steinberg.json"):
        with open(os.path.join(FIXTURES, name)) as fh:
            docs.append(_flag_plus_twists(json.load(fh)))
    listed = 0
    for doc in docs:
        sc = scenario_from_dict(doc)
        # only the flagged elements, and no Weil reps: the other families stay small
        flagged = [e for e in sc.elements if any(d.l_half_nonzero.get(e.name) for d in sc.cuspidal)]
        cons = residual_spectrum(sc.places, flagged, sc.cuspidal, [])
        expected = _sk_names_by_filtered_walk(sc)
        assert [c.name for c in cons if c.name.startswith("P1-SK[")] == expected
        listed += len(expected)
    assert listed > len(docs)


# --- soundness of the keys residual_spectrum shares local work by ---------


def _local_params(place):
    """Every tables sample shape at place, and every principal shape and HPS label pair, both orders."""
    classes = place.square_classes()
    shapes = [lp.shape for _, lp in _sample_shapes(place)]
    shapes += [ShPrincipal(a) for a in classes] + [ShHPS(a, b) for a in classes for b in classes]
    return [LocalParam(place, shape) for shape in shapes]


def _designated(lp):
    """(designated key, member), or None for a shape without a designated member."""
    try:
        return designated_key(lp), packets.designated_l_packet_member(lp)
    except packets.UnsupportedShape:
        return None


@pytest.mark.parametrize("kind", KINDS)
def test_places_of_one_kind_give_equal_packets_and_members(kind):
    # residual_spectrum localizes a local key at the first place of its kind
    # and shares the result with every place of that kind
    at_v, at_w = _local_params(Place("v1", kind)), _local_params(Place("w9", kind))
    for lv, lw in zip(at_v, at_w):
        assert _placeless(lv) == _placeless(lw)
        assert [e.rendered() for e in local_packet(lv)] == [e.rendered() for e in local_packet(lw)]
        assert _designated(lv) == _designated(lw) is not None


def test_equal_designated_keys_give_equal_members():
    # across all five kinds, two places each and both orders of every HPS pair
    by_key: dict = {}
    for kind in KINDS:
        for pid in ("v1", "w9"):
            for lp in _local_params(Place(pid, kind)):
                key, member = _designated(lp)
                by_key.setdefault(key, []).append((lp, member))
    for key, built in by_key.items():
        assert all(member == built[0][1] for _, member in built), key
    shared = [built for built in by_key.values() if len({lp.place.kind for lp, _ in built}) > 1]
    assert len(shared) > len(KINDS)
    # a key is read from labels and data, never through the place
    assert not any("Place(" in repr(key) for key in by_key)


def _map_ids(value, mapping):
    """value with every dict key and string equal to a key of mapping replaced by its image."""
    if isinstance(value, dict):
        return {mapping.get(k, k): _map_ids(v, mapping) for k, v in value.items()}
    if isinstance(value, list):
        return [_map_ids(v, mapping) for v in value]
    return mapping.get(value, value) if isinstance(value, str) else value


def _residual_json(doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["residual", "--scenario", str(path), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_renaming_place_ids_in_order_keeps_the_residual_output(tmp_path, capsys):
    # an order-preserving renaming of the place ids changes no place kind and
    # no place order, so the output maps back to the original byte for byte
    docs = []
    for name in FIXTURE_NAMES:
        with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    docs += [doc for _, doc in load_scengen().residual_scenarios(1)]
    for doc in docs:
        ids = sorted(p["id"] for p in doc["places"])
        rename = {pid: f"place-{i:02d}" for i, pid in enumerate(ids)}
        renamed = _map_ids(doc, rename)
        assert _map_ids(renamed, dict.fromkeys(ids, "old id")) == renamed  # none is left
        before = _residual_json(doc, tmp_path, capsys)
        after = _residual_json(renamed, tmp_path, capsys)
        assert after != before or not before["constituents"]
        mapped_back = _map_ids(after, {new: old for old, new in rename.items()})
        assert json.dumps(mapped_back) == json.dumps(before)


def test_residual_output_with_names_json_must_escape(tmp_path, capsys):
    # place ids and names holding quotes, backslashes, control characters,
    # U+2028 and non-ASCII: the JSON array joined from encoded lines is what
    # json.dumps writes, and the verbose text lists the same members
    weird = ['q"', "b\\", "c\x01\x1f", "l\u2028", "é𝔽₂", 'z\u2028\\"é']
    for name in FIXTURE_NAMES:
        with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        names = [x["name"] for key in ("elements", "cuspidal", "mp2_weil") for x in doc.get(key, [])]
        rename = {old: f"{weird[i % len(weird)]}v{i}" for i, old in enumerate(p["id"] for p in doc["places"])}
        rename.update({old: f"{weird[i % len(weird)]}n{i}" for i, old in enumerate(names)})
        doc = _map_ids(doc, rename)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["residual", "--scenario", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
        report = json.loads(out)
        assert main(["residual", "--scenario", str(path), "--verbose"]) == 0
        lines = [f"{report['count']} residual constituents"]
        for c in report["constituents"]:
            lines.append(f"  [{c['support']}] {c['name']}  ({c['family']})")
            lines += [f"      {pid}: {member}" for pid, member in c["members"].items()]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        escaped = [c for c in report["constituents"] if json.dumps(c["name"], ensure_ascii=False)[1:-1] != c["name"]]
        assert escaped or not report["count"]


def test_designated_member_memo_hashes_no_datum_shape(monkeypatch):
    # the memo keys SK and Soudry members by the int the local keys intern
    # for a datum's name and local shape, so residual_spectrum hashes each
    # datum local shape once per (datum, place), when interning it
    shapes = [cls for cls in vars(parameters).values() if isinstance(cls, type) and cls.__name__.startswith("Rho")]
    hashed = []
    for cls in shapes:
        monkeypatch.setattr(cls, "__hash__", lambda self, h=cls.__hash__: hashed.append(self) or h(self))
    for seed in (1, 2, 3):
        for _, doc in load_scengen().residual_scenarios(seed)[:20]:
            sc = scenario_from_dict(doc)
            hashed.clear()
            residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
            assert len(hashed) <= len(sc.cuspidal) * len(sc.places)
