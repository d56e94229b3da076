"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Everything here is a finite exact computation; there are no
tolerances anywhere.
"""

import copy
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from mp4spectrum.descriptors import (
    GL2Seg,
    MP4,
    MpGenNG,
    MpSt2,
    MpStTwist,
    QuadChar,
    SC2,
    St2,
    WeilEven,
    WeilOdd,
    elementary_weil,
    lq,
    render,
    seg,
)
from mp4spectrum.fields import Place
from mp4spectrum.ktypes import (
    KTypeO,
    degree_o,
    joint_harmonics,
    lowest_kprime_discrete,
    lowest_kprime_catalog,
    LanglandsP2Query,
)
from mp4spectrum.localization import Piece4SC, PieceSC, PieceSt, ShTempered, localize
from mp4spectrum.multiplicity import brute_force_count, enumerate_constituents
from mp4spectrum.packets import (
    designated_l_packet_member,
    local_packet,
    mp_st_pair,
    orthogonal_shimura_row,
    principal_shimura_row,
    reduce_mp4_p1,
    reduce_mp4_p2,
    shimura_row,
)
from mp4spectrum.parameters import AParameter, ParamType, RhoIrreducibleSymplectic, classify
from mp4spectrum.record import FrozenMap
from mp4spectrum.residual import residual_spectrum
from mp4spectrum.scenario import load_scenario, scenario_from_dict
from mp4spectrum.fields import trivial_element

from conftest import PTYPES, make_places, random_scenario_parameter
from ktype_oracles import fock_degree_oracle

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
H = Fraction(1, 2)
TH = Fraction(3, 2)


def _fixture(name):
    sc = load_scenario(os.path.join(FIXTURES, name))
    sc.validate()
    return sc


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_multiplicity_formula_vs_oracle():
    rng = random.Random(1729)
    checked = 0
    seen_types = set()
    while checked < 55:
        ptype = PTYPES[checked % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        assert len(places) <= 5
        formula = len(enumerate_constituents(phi, places))
        oracle = brute_force_count(phi, places)
        assert formula == oracle, (ptype, formula, oracle)
        seen_types.add(classify(phi))
        checked += 1
    assert seen_types == set(ParamType)
    _report(1, f"{checked} randomized scenarios, enumeration = oracle on all of them")


def test_criterion_2_principal_count_law():
    assortments = {
        2: ["nonarch-odd-1mod4", "complex"],
        3: ["nonarch-odd-3mod4", "real", "nonarch-dyadic"],
        4: ["real", "real", "nonarch-dyadic", "nonarch-dyadic"],
        5: ["nonarch-odd-1mod4", "nonarch-odd-3mod4", "complex", "real", "real"],
        6: ["nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-dyadic", "real", "complex", "complex"],
    }
    for n, kinds in assortments.items():
        places = make_places(kinds)
        chi = trivial_element(places)
        phi = AParameter.of([(chi, 4)])
        cons = enumerate_constituents(phi, places)
        assert len(cons) == 2 ** (n - 1), (n, len(cons))
        assert brute_force_count(phi, places) == 2 ** (n - 1)
        for place in places:
            lp, _, _ = localize(phi, place)
            assert all(not e.is_zero for e in local_packet(lp))
    _report(2, "principal constituent count is 2^(n-1) for n = 2..6 over all place kinds")


def test_criterion_3_sk_parity():
    sc = _fixture("sk.json")
    rho = sc.cuspidal[0]
    assert rho.global_root == 1 and rho.twisted_roots["t"] == -1
    cons = enumerate_constituents(sc.parameter, sc.places)
    assert cons
    for c in cons:
        p1 = p2 = 1
        for _, values in c.eta.signs():
            p1 *= values[0]
            p2 *= values[1]
        assert (p1, p2) == (-1, -1)
    _report(3, f"all {len(cons)} enumerated characters satisfy the two parity identities")


def test_criterion_4_vanishing_rules():
    hps = _fixture("hps.json")
    for place in hps.places:
        lp, _, _ = localize(hps.parameter, place)
        zeros = [e.label.values for e in local_packet(lp) if e.is_zero]
        if place.is_real:
            assert zeros == [(-1, -1)]
        else:
            assert zeros == []
    sk = _fixture("sk_steinberg.json")
    for place in sk.places:
        lp, _, _ = localize(sk.parameter, place)
        zeros = [e.label.values for e in local_packet(lp) if e.is_zero]
        if place.id == "v1":  # rho_v = chi_a x S_2 with chi_a nontrivial
            assert zeros == [(1, -1)]
        else:
            assert zeros == []
    _report(4, "zeros sit exactly at (-1,-1) real HPS and (+1,-1) Steinberg SK")


def _expected_l_labels(lp, entries):
    from mp4spectrum.localization import ShSK
    from mp4spectrum.parameters import RhoPrincipalSeries

    if isinstance(lp.shape, ShTempered):
        return {e.label.values for e in entries}
    if isinstance(lp.shape, ShSK) and not isinstance(lp.shape.rho, RhoPrincipalSeries):
        return {(1, 1), (-1, 1)}
    return {entries[0].label.values}  # the all-plus character


def test_criterion_5_table_integrity():
    rng = random.Random(5)
    packets = 0
    for i in range(60):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        for place in places:
            lp, group, _ = localize(phi, place)
            entries = local_packet(lp)
            nonzero = [repr(e.member) for e in entries if not e.is_zero]
            assert len(set(nonzero)) == len(nonzero)
            marked = {e.label.values for e in entries if e.in_l_packet}
            assert marked == _expected_l_labels(lp, entries)
            for e in entries:
                if e.in_l_packet:
                    assert not e.is_zero
            if not isinstance(lp.shape, ShTempered):
                all_plus = entries[0]
                assert all_plus.label.is_trivial
                assert all_plus.member == designated_l_packet_member(lp)
            packets += 1
    _report(5, f"{packets} packets: multiplicity-free, L-labels as designated, all-plus matches")


def _all_shimura_rows():
    place = Place("v", "nonarch-odd-3mod4")
    rows = [
        principal_shimura_row(place, place.class_from_label("u")),
        principal_shimura_row(place, place.class_from_label("1")),
        orthogonal_shimura_row("tau"),
        shimura_row(place, ShTempered((Piece4SC("vr"),))),
        shimura_row(place, ShTempered(tuple(sorted((PieceSC("r1"), PieceSC("r2")), key=repr)))),
        shimura_row(place, ShTempered((PieceSC("r0"), PieceSC("r0")))),
        shimura_row(place, ShTempered((PieceSt("u"), PieceSt("u")))),
        shimura_row(place, ShTempered(tuple(sorted((PieceSt("u"), PieceSt("p")), key=repr)))),
        shimura_row(place, ShTempered(tuple(sorted((PieceSt("1"), PieceSt("u")), key=repr)))),
    ]
    for eps0, tw in itertools.product((1, -1), repeat=2):
        rows.append(
            shimura_row(
                place,
                ShTempered(
                    tuple(sorted((PieceSC("r0"), PieceSt("u")), key=repr)),
                    FrozenMap({"r0": RhoIrreducibleSymplectic("r0", eps0, FrozenMap({"u": tw}))}),
                ),
            )
        )
        rows.append(
            shimura_row(
                place,
                ShTempered(
                    tuple(sorted((PieceSC("r0"), PieceSt("1")), key=repr)),
                    FrozenMap({"r0": RhoIrreducibleSymplectic("r0", eps0)}),
                ),
            )
        )
    return place, rows


def test_criterion_6_shimura_bijection():
    place, rows = _all_shimura_rows()
    for row in rows:
        mp_column = [repr(e.mp) for e in row.entries]
        so_column = [(e.so_space, repr(e.so)) for e in row.entries]
        assert len(set(mp_column)) == len(mp_column)
        assert len(set(so_column)) == len(so_column)
        for e in row.entries:
            space, so = row.to_so(e.label)
            label, mp = row.to_mp(so)
            assert (label, mp, space) == (e.label, e.mp, e.so_space)
    # the displayed anchor values
    by = {e.label: e for e in principal_shimura_row(place, place.class_from_label("u")).entries}
    assert by[(1,)].so == __import__("mp4spectrum.descriptors", fromlist=["SOStTwist"]).SOStTwist(1, "u")
    by1 = {e.label: e for e in principal_shimura_row(place, place.class_from_label("1")).entries}
    assert by1[(1,)].mp == MpStTwist("1", -1)
    _report(6, f"{len(rows)} correspondence rows are round-trip-exact bijections")


def test_criterion_7_ktype_formulas():
    # the displayed values, exact
    anchors = 0
    assert degree_o(KTypeO(2, 1, (0,), 1, (), 1)) == 0
    assert degree_o(KTypeO(2, 1, (0,), 1, (), -1)) == 1
    assert degree_o(KTypeO(2, 1, (0,), -1, (), 1)) == 2
    assert degree_o(KTypeO(2, 1, (0,), -1, (), -1)) == 3
    anchors += 4
    assert joint_harmonics(KTypeO(2, 1, (0,), 1, (), 1), 2).weights == (H, H)
    assert joint_harmonics(KTypeO(2, 1, (0,), 1, (), -1), 2).weights == (H, -H)
    assert joint_harmonics(KTypeO(2, 1, (0,), -1, (), 1), 2).weights == (TH, TH)
    anchors += 3
    kappa = 4
    assert joint_harmonics(KTypeO(2, 1, (kappa,), 1, (), 1), 2).weights == (kappa + H, H)
    assert joint_harmonics(KTypeO(0, 3, (), 1, (kappa - 1,), 1), 2).weights == (-TH, -kappa - H)
    assert joint_harmonics(KTypeO(2, 1, (kappa,), 1, (), -1), 2).weights == (kappa + H, -H)
    assert joint_harmonics(KTypeO(0, 3, (), 1, (kappa - 1,), -1), 2).weights == (
        Fraction(-5, 2),
        -kappa - H,
    )
    anchors += 4
    a, b = Fraction(5, 2), TH
    assert lowest_kprime_discrete(a, b, 1, 1) == (Fraction(7, 2), -TH)
    assert lowest_kprime_discrete(TH, TH, 1, 1) == (Fraction(5, 2), -TH)
    assert lowest_kprime_discrete(TH, TH, -1, -1) == (TH, Fraction(-5, 2))
    kts = lowest_kprime_catalog(LanglandsP2Query(TH, H))
    assert [k.weights for k in kts] == [(Fraction(5, 2), -TH), (TH, Fraction(-5, 2))]
    anchors += 4
    assert anchors >= 8

    # tiny-case Fock oracle: p + q <= 3, weights <= 2
    grid = 0
    for p, q in ((1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (3, 0)):
        for aw in itertools.product(range(3), repeat=p // 2):
            for bw in itertools.product(range(3), repeat=q // 2):
                for eps, delta in itertools.product((1, -1), repeat=2):
                    mu = KTypeO(p, q, aw, eps, bw, delta)
                    oracle = fock_degree_oracle(mu, n=2)
                    if oracle is None:
                        continue
                    assert oracle == degree_o(mu), mu
                    grid += 1
    assert grid >= 30
    _report(7, f"{anchors} displayed values exact; Fock oracle agrees on {grid} small types")


def test_criterion_8_reducibility_oracle():
    quads = [QuadChar(c) for c in ("1", "u", "p", "up")]
    sc_inners = [__import__("mp4spectrum.descriptors", fromlist=["Mp2Member"]).Mp2Member("pi0", e) for e in (1, -1)]
    odd = [WeilOdd(c) for c in ("1", "u", "p")]
    even = [WeilEven(c) for c in ("1", "u", "p")]
    st = [MpSt2(c) for c in ("1", "u", "p")]
    exponents = [Fraction(0), Fraction(1, 4), H, Fraction(1), TH, Fraction(2), Fraction(5, 2)]
    checked = 0
    for char, s, inner in itertools.product(quads, exponents, sc_inners + odd + even + st):
        result = reduce_mp4_p1(char, s, inner)
        c = char.label
        if s == H:
            if isinstance(inner, WeilOdd) and inner.label == c:
                assert not result.reducible
            elif isinstance(inner, (WeilOdd,)) or type(inner).__name__ == "Mp2Member":
                assert result.constituents == (
                    mp_st_pair(c, inner),
                    lq(MP4, [seg(c, H)], inner),
                )
            elif isinstance(inner, MpSt2):
                mu = inner.label
                if c != mu:
                    expect = mp_st_pair(c, inner)
                elif c != "1":
                    expect = MpGenNG(St2(c), True)
                else:
                    expect = MpGenNG(St2("1"), False)
                assert result.constituents == (expect, lq(MP4, [seg(c, H)], inner))
            else:
                assert isinstance(inner, WeilEven)
                b = inner.label
                if c != b:
                    expect = lq(MP4, [seg(b, H)], MpSt2(c))
                elif c != "1":
                    expect = MpGenNG(St2(c), False)
                else:
                    expect = MpGenNG(St2("1"), True)
                assert result.constituents == (expect, lq(MP4, [seg(c, H), seg(b, H)]))
        elif s == TH and getattr(inner, "label", None) == c and isinstance(inner, MpSt2):
            assert result.constituents == (MpStTwist(c, 1), lq(MP4, [seg(c, TH)], inner))
        elif s == TH and getattr(inner, "label", None) == c and isinstance(inner, WeilOdd):
            assert result.constituents == (MpStTwist(c, -1), elementary_weil(2, -1, c))
        elif s == TH and getattr(inner, "label", None) == c and isinstance(inner, WeilEven):
            assert result.constituents == (
                lq(MP4, [GL2Seg(St2(c), Fraction(1))]),
                elementary_weil(2, 1, c),
            )
        else:
            assert not result.reducible, (char, s, inner)
        checked += 1
    # the Siegel-parabolic case list on its grid
    taus = [(St2("1"), True), (St2("u"), True), (SC2("t1"), False), (SC2("t2"), True)]
    for (tau, omega), s in itertools.product(taus, exponents):
        result = reduce_mp4_p2(tau, s, omega)
        if omega and s == 0:
            assert result.direct_sum
            assert result.constituents == (MpGenNG(tau, True), MpGenNG(tau, False))
        elif isinstance(tau, SC2) and not omega and s == H:
            assert result.reducible and len(result.constituents) == 2
        elif isinstance(tau, St2) and s == 1:
            assert result.constituents == (
                MpStTwist(tau.label, 1),
                lq(MP4, [GL2Seg(tau, Fraction(1))]),
            )
        else:
            assert not result.reducible
        checked += 1
    _report(8, f"composition series verified on {checked} induced representations")


def test_criterion_9_reciprocity_validator():
    names = [
        "principal.json",
        "sk.json",
        "sk_steinberg.json",
        "hps.json",
        "hps_degenerate.json",
        "soudry.json",
        "tempered.json",
    ]
    for name in names:
        assert _fixture(name).reciprocity_report().ok
    mutations = []
    for name in names:
        with open(os.path.join(FIXTURES, name)) as fh:
            data = json.load(fh)
        places = {p["id"]: Place(p["id"], p["kind"]) for p in data["places"]}
        for ei, elem in enumerate(data.get("elements", [])):
            for pid, label in elem["classes"].items():
                for other in places[pid].square_classes():
                    if other.label == label:
                        continue
                    mutated = copy.deepcopy(data)
                    mutated["elements"][ei]["classes"][pid] = other.label
                    report = scenario_from_dict(mutated).reciprocity_report()
                    if not report.ok:
                        a, b, prod = report.violation
                        assert prod == -1
                        assert elem["name"] in (a, b)
                        mutations.append((name, elem["name"], pid, other.label))
    assert len(mutations) >= 10
    _report(9, f"all fixtures accepted; {len(mutations)} single-flip mutations rejected with a named pair")


def test_criterion_10_residual_cross_check():
    matched = 0
    for name in ("principal.json", "hps.json"):
        sc = _fixture(name)
        cons = residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
        assert cons
        for c in cons:
            if c.family not in ("principal", "howe-piatetski-shapiro"):
                continue
            spectrum = enumerate_constituents(c.parameter, sc.places)
            members = {tuple((pid, repr(m)) for pid, m in cc.local_members) for cc in spectrum}
            key = tuple((pid, repr(m)) for pid, m in c.descriptor)
            assert key in members, c.name
            matched += 1
    assert matched >= 8
    _report(10, f"{matched} residual constituents matched an enumerated character exactly")
