"""Residual spectrum enumeration and its cross-checks."""

import itertools
import json
import math
import os
import sys

import pytest

from mp4spectrum import descriptors, localization, packets
from mp4spectrum.cli import main
from mp4spectrum.descriptors import render
from mp4spectrum.fields import GlobalElement, minus_one_element, trivial_element
from mp4spectrum.localization import localize
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.packets import local_packet
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
from mp4spectrum.record import FrozenMap
from mp4spectrum.residual import Mp2CuspidalWeil, _sign_vectors, residual_spectrum
from mp4spectrum.scenario import load_scenario, scenario_from_dict

from conftest import make_places
from golden_calls import FIXTURES, SCENARIOS, load_scengen


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


def test_residual_builds_each_local_parameter_once(monkeypatch):
    # the generated scenario has constituents of all six families; B-pr and
    # P1-pr, B-HPS and P1-HPS, the P1-SK sign vectors, and parameters of
    # elements with equal classes at a place share local parameters there.
    # Local work is keyed by local data, so no local parameter is localized
    # twice, except that a Soudry split place repeats an HPS pair's local
    # parameter under its own key (the two then share one member)
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    original = localization.localize
    localized = _record_calls(monkeypatch, localization, "localize")
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    assert {c.name.split("[")[0] for c in cons} == {"B-pr", "B-HPS", "P2", "P1-pr", "P1-SK", "P1-HPS"}
    built = [(classify(phi), original(phi, place)[0]) for phi, place in localized]
    repeats = [{t1, t2} for (t1, a), (t2, b) in itertools.combinations(built, 2) if a == b]
    assert all(pair == {ParamType.SOUDRY, ParamType.HOWE_PS} for pair in repeats)
    lps = [lp for _, lp in built]
    assert all(original(c.parameter, p)[0] in lps for c in cons for p in sc.places)
    assert len(lps) < len({(c.parameter.basis_labels(), p.id) for c in cons for p in sc.places})


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
    # local_packet runs at most once per distinct local parameter, and only
    # where some P1 constituent reads a label other than the all-plus one
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    built = _record_calls(monkeypatch, packets, "local_packet")
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    slots = _member_slots(sc, cons, localize_, designate)
    p1 = _distinct(lp for c, lp, _, _ in slots if c.support == "P1")
    other_labels = _distinct(lp for c, lp, _, all_plus in slots if c.support == "P1" and not all_plus)
    assert [lp for (lp,) in built] == _distinct(lp for (lp,) in built)
    assert set(built) == {(lp,) for lp in other_labels}
    assert len(built) < len(p1)
    assert all(c.support == "P1" for c, _, _, all_plus in slots if not all_plus)


def test_residual_builds_each_designated_member_once(monkeypatch):
    # B-pr and B-HPS parameters of different elements often localize to the
    # same local parameter, and a P1 constituent reads the designated member
    # at each all-plus place; it is built once per local parameter and shared
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    built = _record_calls(monkeypatch, packets, "designated_l_packet_member")
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    reads = [(c, lp, d) for c, lp, d, all_plus in _member_slots(sc, cons, localize_, designate) if all_plus]
    assert len(built) == len(set(built))
    assert set(built) == {(lp,) for _, lp, _ in reads}
    assert len(built) < len(reads)
    assert len({id(d) for _, _, d in reads}) == len(built)
    # P1 reads local parameters that no B or P2 constituent reaches, and builds their members too
    assert len(built) > len({lp for c, lp, _ in reads if c.support != "P1"})


def test_p1_all_plus_member_is_the_designated_member(monkeypatch):
    # the designated member equals the all-plus packet entry, so P1 shares
    # the object B and P2 read, and the render memo renders it once
    sc = load_scenario(os.path.join(SCENARIOS, "residual_wide_1_06.json"))
    localize_, designate = localization.localize, packets.designated_l_packet_member
    members = []
    built = _record_calls(monkeypatch, packets, "designated_l_packet_member", members)
    cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    designated = {lp: m for (lp,), m in zip(built, members)}
    slots = _member_slots(sc, cons, localize_, designate)
    p1_all_plus = [(lp, d) for c, lp, d, all_plus in slots if all_plus and c.support == "P1"]
    assert p1_all_plus
    assert all(d is designated[lp] for lp, d in p1_all_plus)


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
