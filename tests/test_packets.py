"""The packet tables: members, vanishing rules, correspondence, composition series."""

import itertools
import os
import sys
from fractions import Fraction

import pytest

from mp4spectrum.descriptors import (
    MP4,
    GL2Seg,
    Mp2Member,
    MpGenNG,
    MpSt2,
    MpStPair,
    MpStTwist,
    QuadChar,
    RealD,
    RealLKT,
    SC2,
    SODS,
    SOStTwist,
    St2,
    TagChar,
    Seg,
    WeilEven,
    WeilOdd,
    ZERO,
    dsum,
    elementary_weil,
    lq,
    render,
    seg,
)
from mp4spectrum import residual
from mp4spectrum.fields import KINDS, Place, chi_minus_one
from mp4spectrum.localization import (
    Piece4SC,
    PieceD,
    PiecePS,
    PieceSC,
    PieceSt,
    ShHPS,
    ShPrincipal,
    ShSK,
    ShSoudryIrreducible,
    ShSoudryNonQuadratic,
    ShTempered,
    LocalParam,
    local_group,
    local_shape,
    localize,
)
from mp4spectrum.packets import (
    UnsupportedInduction,
    designated_l_packet_member,
    local_packet,
    mp_st_pair,
    packet_entry,
    orthogonal_shimura_row,
    principal_shimura_row,
    reduce_mp4_p1,
    reduce_mp4_p2,
    reduce_so5_minus_q1,
    reduce_so5_plus_q1,
    reduce_so5_plus_q2,
    shimura_row,
)
from mp4spectrum.parameters import (
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoSteinberg,
)
from mp4spectrum.record import FrozenMap
from mp4spectrum.scenario import load_scenario, scenario_from_dict
from mp4spectrum.tables import _sample_shapes

from conftest import PTYPES, random_scenario_parameter
from golden_calls import FIXTURE_NAMES, FIXTURES, enumerate_scaled_scenarios, load_scengen
from theta_oracles import hps_quaternion_data, sk_quaternion_data, theta_o3_nonvanishing

H = Fraction(1, 2)
TH = Fraction(3, 2)

ODD1 = Place("v", "nonarch-odd-1mod4")
ODD3 = Place("v", "nonarch-odd-3mod4")
REAL = Place("v", "real")
CPLX = Place("v", "complex")


def entries_by_label(lp):
    return {e.label.values: e for e in local_packet(lp)}


# ---------------------------------------------------------------------------
# sign bookkeeping


def test_sk_quaternion_identity_case():
    assert sk_quaternion_data(1, 1, 1, 1, 1) == (1, 1)


def test_sk_quaternion_substitution():
    # eps1=+1, eps(rho)=-1, eps(rho x chi)=+1, chi_a(-1)=+1, eps2=+1
    assert sk_quaternion_data(1, 1, -1, 1, 1) == (-1, -1)


def test_sk_quaternion_reducible_rule():
    eps, _ = sk_quaternion_data(-1, 1, 1, 1, -1, rho_reducible=True)
    assert eps == -1
    # for reducible rho: eps(rho) = chi(-1) and eps(rho x chi_a) = chi(-1) chi_a(-1),
    # so the closed formula collapses to eps = eps1 and the flag agrees with it
    for e1, e2, parity, ca in itertools.product((1, -1), repeat=4):
        full = sk_quaternion_data(e1, e2, parity, parity * ca, ca)
        red = sk_quaternion_data(e1, e2, parity, parity * ca, ca, rho_reducible=True)
        assert full == red == (e1, e1 * e2 * parity * ca)


def test_hps_quaternion_values():
    assert hps_quaternion_data(1, 1, 1) == (1, 1)
    assert hps_quaternion_data(-1, 1, -1) == (1, 1)
    assert hps_quaternion_data(1, -1, 1) == (-1, -1)


def test_theta_o3_nonvanishing():
    assert not theta_o3_nonvanishing(2, sigma_is_det=True)
    assert theta_o3_nonvanishing(2, sigma_is_det=False)
    assert theta_o3_nonvanishing(1, sigma_is_det=False, sigma_minus_one=1, space_eps=1, root_number=1)
    assert not theta_o3_nonvanishing(
        1, sigma_is_det=False, sigma_minus_one=-1, space_eps=1, root_number=1
    )


# ---------------------------------------------------------------------------
# packets: principal


@pytest.mark.parametrize("place", [ODD1, ODD3, REAL, CPLX], ids=lambda p: p.kind)
def test_principal_packet(place):
    for cls in place.square_classes():
        lp = LocalParam(place, ShPrincipal(cls))
        ent = entries_by_label(lp)
        assert set(ent) == {(1,), (-1,)}
        assert ent[(1,)].member == elementary_weil(2, 1, cls.label)
        assert ent[(-1,)].member == elementary_weil(2, -1, cls.label)
        assert ent[(1,)].in_l_packet and not ent[(-1,)].in_l_packet
        assert not ent[(1,)].is_zero and not ent[(-1,)].is_zero


# ---------------------------------------------------------------------------
# packets: Saito-Kurokawa


def test_sk_packet_supercuspidal_rho():
    rho = RhoIrreducibleSymplectic("sc", -1, FrozenMap({"u": 1, "p": 1, "up": 1}))
    a = ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShSK("rho", rho, a)))
    assert ent[(1, 1)].member == lq(MP4, [seg("u", H)], Mp2Member("sc", 1))
    assert ent[(-1, 1)].member == lq(MP4, [seg("u", H)], Mp2Member("sc", -1))
    assert not any(e.is_zero for e in ent.values())
    assert {lab for lab, e in ent.items() if e.in_l_packet} == {(1, 1), (-1, 1)}


def test_sk_packet_steinberg_same_class_nontrivial():
    # rho_v = chi_a x S_2 with chi_a != 1: zero exactly at (+, -)
    rho = RhoSteinberg("u", -1, FrozenMap())
    a = ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShSK("rho", rho, a)))
    assert ent[(1, -1)].is_zero
    assert not ent[(-1, -1)].is_zero
    assert ent[(-1, -1)].member == MpGenNG(St2("u"), False)
    assert ent[(1, 1)].member == lq(MP4, [seg("u", H)], MpSt2("u"))
    assert ent[(-1, 1)].member == lq(MP4, [seg("u", H)], WeilOdd("u"))


def test_sk_packet_steinberg_same_class_trivial():
    # rho_v = 1 x S_2: zero exactly at (-, -), and (+, -) is the generic member
    rho = RhoSteinberg("1", -1, FrozenMap())
    a = ODD3.class_from_label("1")
    ent = entries_by_label(LocalParam(ODD3, ShSK("rho", rho, a)))
    assert ent[(-1, -1)].is_zero
    assert ent[(1, -1)].member == MpGenNG(St2("1"), True)


def test_sk_packet_steinberg_other_class():
    rho = RhoSteinberg("p", -1, FrozenMap())
    a = ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShSK("rho", rho, a)))
    assert not any(e.is_zero for e in ent.values())
    assert ent[(1, -1)].member == MpStPair("u", WeilOdd("p")) or not ent[(1, -1)].is_zero


def test_sk_packet_real_discrete_vanishing():
    # kappa = 1 and eps1 = -chi_a(-1) vanishes; kappa > 1 never does
    a_neg = REAL.class_from_label("-1")
    ent = entries_by_label(
        LocalParam(REAL, ShSK("rho", RhoRealDiscrete(1), a_neg))
    )
    assert ent[(1, -1)].is_zero  # chi_a(-1) = -1 here
    assert not ent[(-1, -1)].is_zero
    a_pos = REAL.class_from_label("1")
    ent = entries_by_label(
        LocalParam(REAL, ShSK("rho", RhoRealDiscrete(1), a_pos))
    )
    assert ent[(-1, -1)].is_zero
    assert not ent[(1, -1)].is_zero
    ent = entries_by_label(
        LocalParam(REAL, ShSK("rho", RhoRealDiscrete(2), a_neg))
    )
    assert not any(e.is_zero for e in ent.values())


def test_sk_packet_real_discrete_members():
    # kappa = 2, chi_a(-1) = +1: the (eps1, -) members are the discrete series
    # of D_{3/2} + D_{1/2} labeled (eps1, +1)
    a = REAL.class_from_label("1")
    ent = entries_by_label(
        LocalParam(REAL, ShSK("rho", RhoRealDiscrete(2), a))
    )
    assert ent[(1, -1)].member == RealLKT((Fraction(5, 2), -H))
    assert ent[(-1, -1)].member == RealLKT((Fraction(-5, 2), Fraction(-5, 2)))
    assert ent[(1, 1)].member == lq(MP4, [seg("1", H)], __import__("mp4spectrum.descriptors", fromlist=["MpRealDS2"]).MpRealDS2(TH))


def test_sk_packet_reducible_rho():
    rho = RhoPrincipalSeries("mu", Fraction(1, 4), 1)
    a = ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShSK("rho", rho, a)))
    assert set(ent) == {(1, 1), (1, -1)}
    assert not any(e.is_zero for e in ent.values())
    assert ent[(1, 1)].member == lq(MP4, [seg("u", H), Seg(TagChar("mu"), Fraction(1, 4))])
    assert ent[(1, -1)].member == lq(MP4, [Seg(TagChar("mu"), Fraction(1, 4))], WeilOdd("u"))
    assert {lab for lab, e in ent.items() if e.in_l_packet} == {(1, 1)}


# ---------------------------------------------------------------------------
# packets: Howe-PS


def test_hps_packet_distinct_nonarch():
    a, b = ODD3.class_from_label("1"), ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShHPS(a, b)))
    assert ent[(1, 1)].member == lq(MP4, [seg("1", H), seg("u", H)])
    assert ent[(1, -1)].member == lq(MP4, [seg("1", H)], WeilOdd("u"))
    assert ent[(-1, 1)].member == lq(MP4, [seg("u", H)], WeilOdd("1"))
    assert not any(e.is_zero for e in ent.values())
    assert {lab for lab, e in ent.items() if e.in_l_packet} == {(1, 1)}


def test_hps_packet_distinct_real_vanishing():
    a, b = REAL.class_from_label("1"), REAL.class_from_label("-1")
    ent = entries_by_label(LocalParam(REAL, ShHPS(a, b)))
    assert ent[(-1, -1)].is_zero
    assert [lab for lab, e in ent.items() if e.is_zero] == [(-1, -1)]


def test_hps_packet_equal_nonarch():
    a = ODD3.class_from_label("u")
    ent = entries_by_label(LocalParam(ODD3, ShHPS(a, a)))
    assert set(ent) == {(1, 1), (-1, -1)}
    assert ent[(-1, -1)].member == lq(MP4, [seg("u", H)], MpSt2("u"))


def test_hps_packet_equal_real_dual_weil():
    a = REAL.class_from_label("1")
    ent = entries_by_label(LocalParam(REAL, ShHPS(a, a)))
    # (omega^-_{psi_a})^dual = omega^-_{psi_{-a}}
    assert ent[(-1, -1)].member == lq(MP4, [seg("1", H)], WeilOdd("-1"))
    b = REAL.class_from_label("-1")
    ent = entries_by_label(LocalParam(REAL, ShHPS(b, b)))
    assert ent[(-1, -1)].member == lq(MP4, [seg("-1", H)], WeilOdd("1"))


def test_hps_packet_equal_complex_zero():
    a = CPLX.class_from_label("1")
    ent = entries_by_label(LocalParam(CPLX, ShHPS(a, a)))
    assert set(ent) == {(1, 1), (-1, -1)}
    assert ent[(-1, -1)].is_zero
    assert ent[(1, 1)].member == lq(MP4, [seg("1", H), seg("1", H)])


# ---------------------------------------------------------------------------
# packets: Soudry


def test_soudry_packet_nonarch_irreducible():
    shape = ShSoudryIrreducible("rho", RhoDihedralSupercuspidal("tau"))
    ent = entries_by_label(LocalParam(ODD3, shape))
    assert ent[(1,)].member == lq(MP4, [GL2Seg(SC2("tau"), H)])
    assert not ent[(-1,)].is_zero
    assert {lab for lab, e in ent.items() if e.in_l_packet} == {(1,)}


def test_soudry_packet_real_direct_sum():
    shape = ShSoudryIrreducible("rho", RhoRealOrthogonalDiscrete(2))
    ent = entries_by_label(LocalParam(REAL, shape))
    assert ent[(1,)].member == lq(MP4, [GL2Seg(RealD(Fraction(2)), H)])
    minus = ent[(-1,)].member
    expected = dsum(
        RealLKT((Fraction(7, 2), Fraction(7, 2))),
        RealLKT((Fraction(-7, 2), Fraction(-7, 2))),
    )
    assert minus == expected


def test_soudry_packet_nonquadratic():
    shape = ShSoudryNonQuadratic("mu")
    ent = entries_by_label(LocalParam(ODD3, shape))
    assert set(ent) == {()}
    member = ent[()].member
    assert member == lq(MP4, [Seg(TagChar("mu"), H), Seg(TagChar("mu", True), H)])


# ---------------------------------------------------------------------------
# packet-wide invariants


def _all_sample_params(rng, count=40):
    for i in range(count):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        for place in places:
            yield localize(phi, place)


def test_packets_multiplicity_free(rng):
    for lp, group, iota in _all_sample_params(rng):
        entries = local_packet(lp)
        nonzero = [repr(e.member) for e in entries if not e.is_zero]
        assert len(set(nonzero)) == len(nonzero), f"repeat in {lp}"


def test_l_packet_members_nonzero_and_designated(rng):
    for lp, group, iota in _all_sample_params(rng):
        entries = local_packet(lp)
        for e in entries:
            if e.in_l_packet:
                assert not e.is_zero
        if not isinstance(lp.shape, ShTempered):
            all_plus = entries[0]
            assert all_plus.label.is_trivial
            assert all_plus.member == designated_l_packet_member(lp)


def test_packet_labels_are_the_local_characters(rng):
    # the multiplicity module indexes packet entries by position in
    # group.characters(), so the two lists must agree entry for entry
    for lp, group, iota in _all_sample_params(rng):
        assert [e.label for e in local_packet(lp)] == group.characters()


def test_sk_vanishing_case_list(rng):
    # Zero occurs only at: nonarch steinberg with the twist class, real kappa = 1
    for i in range(60):
        places, elements, phi = random_scenario_parameter(rng, "saito-kurokawa")
        for place in places:
            lp, group, _ = localize(phi, place)
            zeros = [e for e in local_packet(lp) if e.is_zero]
            shape = lp.shape
            expect_zero = False
            if isinstance(shape.rho, RhoSteinberg):
                expect_zero = place.class_from_label(shape.rho.label) == shape.a
            if isinstance(shape.rho, RhoRealDiscrete):
                expect_zero = shape.rho.kappa == 1
            assert bool(zeros) == expect_zero, (place.kind, shape)
            assert len(zeros) <= 1


# ---------------------------------------------------------------------------
# Shimura correspondence table


def test_steinberg_s4_rows():
    # chi_a x S_4 with chi_a != 1: Mp label + pairs with St~^+; for chi_a = 1
    # the Mp members swap signs
    row = principal_shimura_row(ODD3, ODD3.class_from_label("u"))
    by = {e.label: e for e in row.entries}
    assert by[(1,)].mp == MpStTwist("u", 1)
    assert by[(1,)].so == SOStTwist(1, "u") and by[(1,)].so_space == 1
    assert by[(-1,)].so == SOStTwist(-1, "u") and by[(-1,)].so_space == -1
    row1 = principal_shimura_row(ODD3, ODD3.class_from_label("1"))
    by1 = {e.label: e for e in row1.entries}
    assert by1[(1,)].mp == MpStTwist("1", -1)
    assert by1[(1,)].so == SOStTwist(1, "1")
    assert by1[(-1,)].mp == MpStTwist("1", 1)


def test_orthogonal_s2_row():
    row = orthogonal_shimura_row(ODD3, "tau")
    by = {e.label: e for e in row.entries}
    assert by[(1,)].mp == __import__("mp4spectrum.descriptors", fromlist=["MpStTau"]).MpStTau(SC2("tau"))
    assert isinstance(by[(-1,)].so, SODS)


def _all_rows():
    rows = [
        principal_shimura_row(ODD3, ODD3.class_from_label("u")),
        principal_shimura_row(ODD3, ODD3.class_from_label("1")),
        orthogonal_shimura_row(ODD3, "tau"),
        shimura_row(ODD3, ShTempered((Piece4SC("vr"),))),
        shimura_row(ODD3, ShTempered(tuple(sorted((PieceSC("r1"), PieceSC("r2")), key=repr)))),
        shimura_row(ODD3, ShTempered((PieceSC("r0"), PieceSC("r0")))),
        shimura_row(ODD3, ShTempered((PieceSt("u"), PieceSt("u")))),
    ]
    for eps0, tw in itertools.product((1, -1), repeat=2):
        rows.append(
            shimura_row(
                ODD3,
                ShTempered(
                    tuple(sorted((PieceSC("r0"), PieceSt("u")), key=repr)),
                    FrozenMap({"r0": RhoIrreducibleSymplectic("r0", eps0, FrozenMap({"u": tw}))}),
                ),
            )
        )
        rows.append(
            shimura_row(
                ODD3,
                ShTempered(
                    tuple(sorted((PieceSC("r0"), PieceSt("1")), key=repr)),
                    FrozenMap({"r0": RhoIrreducibleSymplectic("r0", eps0)}),
                ),
            )
        )
    for pair in (("u", "p"), ("u", "up"), ("1", "u"), ("1", "p")):
        pieces = tuple(sorted((PieceSt(pair[0]), PieceSt(pair[1])), key=repr))
        rows.append(shimura_row(ODD3, ShTempered(pieces)))
    return rows


def test_shimura_rows_are_bijections():
    for row in _all_rows():
        mps = [repr(e.mp) for e in row.entries]
        sos = [(e.so_space, repr(e.so)) for e in row.entries]
        assert len(set(mps)) == len(mps), row.name
        assert len(set(sos)) == len(sos), row.name
        for e in row.entries:
            lab, mp = row.to_mp(e.so)
            assert lab == e.label and mp == e.mp
            space, so = row.to_so(e.label)
            assert space == e.so_space and so == e.so
            assert row.mp_member(e.label) == e.mp


def test_shimura_so_space_is_label_product():
    for row in _all_rows():
        for e in row.entries:
            prod = 1
            for s in e.label:
                prod *= s
            assert e.so_space == prod


def test_steinberg_pair_row_special_values():
    pieces = tuple(sorted((PieceSt("u"), PieceSt("p")), key=repr))
    row = shimura_row(ODD3, ShTempered(pieces))
    by = {e.label: e for e in row.entries}
    a, b = pieces[0].label, pieces[1].label
    assert by[(1, 1)].mp == mp_st_pair(a, MpSt2(b))
    assert by[(1, -1)].mp == MpStPair(a, WeilOdd(b))
    assert by[(-1, 1)].mp == MpStPair(b, WeilOdd(a))


def test_shimura_correspondence_directions():
    row = principal_shimura_row(ODD3, ODD3.class_from_label("u"))
    space, so = row.to_so((1,))
    assert (space, so) == (1, SOStTwist(1, "u"))
    label, mp = row.to_mp(so)
    assert label == (1,) and mp == MpStTwist("u", 1)
    from mp4spectrum.packets import RowNotFound

    with pytest.raises(RowNotFound):
        row.to_so((1, 1))


def test_double_rows_have_diagonal_labels_only():
    row = shimura_row(ODD3, ShTempered((PieceSt("u"), PieceSt("u"))))
    assert [e.label for e in row.entries] == [(1, 1), (-1, -1)]
    by = {e.label: e for e in row.entries}
    assert by[(1, 1)].mp == MpGenNG(St2("u"), True)
    assert by[(-1, -1)].mp == MpGenNG(St2("u"), False)
    assert by[(1, 1)].so_space == by[(-1, -1)].so_space == 1


# ---------------------------------------------------------------------------
# reducibility oracle


SC_INNERS = [Mp2Member("pi0", 1), Mp2Member("pi0", -1), WeilOdd("1"), WeilOdd("u"), WeilOdd("p")]
ST_INNERS = [MpSt2("1"), MpSt2("u"), MpSt2("p")]
EVEN_INNERS = [WeilEven("1"), WeilEven("u"), WeilEven("p")]
QUADS = [QuadChar(c) for c in ("1", "u", "p", "up")]
EXPONENTS = [Fraction(0), Fraction(1, 4), H, Fraction(1), TH, Fraction(2)]


def test_p1_reducibility_matches_case_list():
    for char, s, inner in itertools.product(
        QUADS + [TagChar("mu")], EXPONENTS, SC_INNERS + ST_INNERS + EVEN_INNERS
    ):
        result = reduce_mp4_p1(char, s, inner)
        quad = isinstance(char, QuadChar)
        expected = False
        if quad and s == H:
            if isinstance(inner, Mp2Member):
                expected = True
            elif isinstance(inner, WeilOdd):
                expected = inner.label != char.label
            else:
                expected = True  # st~ and even Weil always reduce at 1/2
        if quad and s == TH and getattr(inner, "label", None) == char.label:
            expected = not isinstance(inner, Mp2Member)
        assert result.reducible == expected, (char, s, inner)
        if result.reducible:
            assert len(result.constituents) == 2
            sub, quot = result.constituents
            assert repr(sub) != repr(quot)


def test_p1_case_quotients_and_subs():
    # chi^2 = 1, s = 1/2, pi = omega^+_{psi_b}, chi != chi_b
    r = reduce_mp4_p1(QuadChar("u"), H, WeilEven("p"))
    assert r.constituents == (
        lq(MP4, [seg("p", H)], MpSt2("u")),
        lq(MP4, [seg("u", H), seg("p", H)]),
    )
    # chi = chi_b != 1: nongeneric summand; chi = chi_b = 1: generic
    assert reduce_mp4_p1(QuadChar("u"), H, WeilEven("u")).constituents[0] == MpGenNG(St2("u"), False)
    assert reduce_mp4_p1(QuadChar("1"), H, WeilEven("1")).constituents[0] == MpGenNG(St2("1"), True)
    # s = 3/2 family
    assert reduce_mp4_p1(QuadChar("u"), TH, MpSt2("u")).constituents[0] == MpStTwist("u", 1)
    assert reduce_mp4_p1(QuadChar("u"), TH, WeilOdd("u")).constituents == (
        MpStTwist("u", -1),
        elementary_weil(2, -1, "u"),
    )
    assert reduce_mp4_p1(QuadChar("u"), TH, WeilEven("u")).constituents == (
        lq(MP4, [GL2Seg(St2("u"), Fraction(1))]),
        elementary_weil(2, 1, "u"),
    )
    # the St~(chi, st~_mu) = St~(mu, st~_chi) identification
    assert (
        reduce_mp4_p1(QuadChar("u"), H, MpSt2("p")).constituents[0]
        == reduce_mp4_p1(QuadChar("p"), H, MpSt2("u")).constituents[0]
    )


def test_p2_reducibility_matches_case_list():
    taus = [
        (St2("1"), True),
        (St2("u"), True),
        (SC2("tau"), False),
        (SC2("tau0"), True),
        (RealD(Fraction(1)), True),
    ]
    for (tau, omega_trivial), s in itertools.product(taus, EXPONENTS):
        result = reduce_mp4_p2(tau, s, omega_trivial)
        expected = False
        if omega_trivial and s == 0:
            expected = True
        if isinstance(tau, SC2) and not omega_trivial and s == H:
            expected = True
        if isinstance(tau, St2) and s == 1:
            expected = True
        assert result.reducible == expected, (tau, s)
        if expected and s == 0:
            assert result.direct_sum
            assert result.constituents == (MpGenNG(tau, True), MpGenNG(tau, False))


def test_p2_shares_twisted_steinberg_with_p1():
    sub_p2 = reduce_mp4_p2(St2("u"), Fraction(1), True).constituents[0]
    sub_p1 = reduce_mp4_p1(QuadChar("u"), TH, MpSt2("u")).constituents[0]
    assert sub_p2 == sub_p1 == MpStTwist("u", 1)


def test_so5_oracles():
    from mp4spectrum.descriptors import NuChar, Opaque, SOGenNG, SOStPair, SOStTau

    sc = Opaque("sigma_sc", ("s1",))
    r = reduce_so5_plus_q1(QuadChar("u"), H, sc)
    assert r.reducible and r.constituents[0] == SOStPair(1, "u", sc)
    assert reduce_so5_plus_q1(QuadChar("u"), H, St2("u")).constituents[0] == SOGenNG(St2("u"), True)
    assert not reduce_so5_plus_q1(TagChar("mu"), H, sc).reducible
    assert reduce_so5_plus_q1(QuadChar("u"), TH, St2("u")).constituents[0] == SOStTwist(1, "u")
    assert not reduce_so5_plus_q1(QuadChar("u"), TH, St2("p")).reducible
    r = reduce_so5_plus_q2(SC2("tau"), H, omega_trivial=False)
    assert r.constituents[0] == SOStTau(SC2("tau"))
    r = reduce_so5_plus_q2(St2("u"), Fraction(0))
    assert r.direct_sum
    # minus form: reducible at 1/2 unless sigma is the matching nu-character
    assert reduce_so5_minus_q1(QuadChar("u"), H, NuChar("p")).reducible
    assert not reduce_so5_minus_q1(QuadChar("u"), H, NuChar("u")).reducible
    assert reduce_so5_minus_q1(QuadChar("u"), TH, NuChar("u")).constituents[0] == SOStTwist(-1, "u")
    assert not reduce_so5_minus_q1(QuadChar("u"), TH, NuChar("p")).reducible


def test_oracle_rejects_unknown_shapes():
    with pytest.raises(UnsupportedInduction):
        reduce_mp4_p1(QuadChar("u"), Fraction(-1), WeilOdd("u"))
    with pytest.raises(UnsupportedInduction):
        reduce_mp4_p1(QuadChar("u"), H, RealLKT((H, H)))
    with pytest.raises(UnsupportedInduction):
        reduce_mp4_p2(SC2("tau"), H)  # central character unspecified


def _reached_local_params(monkeypatch) -> list:
    """The tables samples at every kind, the fixtures' local parameters, and those residual reaches on seeds 1-3.

    residual reaches a local parameter through localize where it builds a
    LocalData, and through local_shape where it reads a designated member.
    """
    lps = [lp for kind in KINDS for _, lp in _sample_shapes(Place("v", kind))]
    for name in FIXTURE_NAMES:
        sc = load_scenario(os.path.join(FIXTURES, f"{name}.json"))
        lps += [localize(sc.parameter, p)[0] for p in sc.places]

    def recorded(phi, place):
        out = localize(phi, place)
        lps.append(out[0])
        return out

    def shaped(phi, place):
        out = local_shape(phi, place)
        lps.append(LocalParam(place, out[0]))
        return out

    monkeypatch.setattr(sys.modules["mp4spectrum.multiplicity"], "localize", recorded)
    monkeypatch.setattr(residual, "local_shape", shaped)  # the shapes residual reads designated members from
    for seed in (1, 2, 3):
        for _, doc in load_scengen().residual_scenarios(seed):
            sc = scenario_from_dict(doc)
            residual.residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    return list(dict.fromkeys(lps))


def test_packet_entry_is_the_local_packet_entry(monkeypatch):
    # packet_entry builds one entry by the rule local_packet maps over the
    # characters, and refuses every mask that is not a character
    lps = _reached_local_params(monkeypatch)
    refused = 0
    for lp in lps:
        packet = local_packet(lp)
        assert [packet_entry(lp, e.label.bits) for e in packet] == packet
        characters = {e.label.bits for e in packet}
        for mask in range(-1, 2 << len(local_group(lp.shape).basis)):
            if mask not in characters:
                with pytest.raises(ValueError):
                    packet_entry(lp, mask)
                refused += 0 <= mask < 1 << len(local_group(lp.shape).basis)
    assert len(lps) > 2000 and refused  # some masks in range break a relation


def test_tempered_packet_reads_each_piece_repr_once(rng, monkeypatch):
    # the tempered rule reads a shape's generators, branch and piece reprs
    # once per shape, however many entries local_packet and packet_entry build
    scenarios = [load_scenario(os.path.join(FIXTURES, "tempered.json"))]
    scenarios += [scenario_from_dict(doc) for doc in enumerate_scaled_scenarios(1)]
    inputs = [(sc.places, sc.parameter) for sc in scenarios]
    for _ in range(40):
        places, _, phi = random_scenario_parameter(rng, "tempered")
        inputs.append((places, phi))
    read = []
    for cls, piece in ((PieceSC, PieceSC("t")), (PieceSt, PieceSt("1")), (PieceD, PieceD(Fraction(1, 2))),
                       (Piece4SC, Piece4SC("t")), (PiecePS, PiecePS("c", Fraction(0), 1))):
        repr(piece)  # puts the class's own __repr__ in place of the shared first-use stub
        monkeypatch.setattr(cls, "__repr__", lambda self, _repr=cls.__repr__: read.append(self) or _repr(self))
    shapes = 0
    for places, phi in inputs:
        if not isinstance(localize(phi, places[0])[0].shape, ShTempered):
            continue
        for place in places:
            lp, group, _ = localize(phi, place)
            del read[:]
            packet = local_packet(lp)
            assert all(e.label.group is group for e in packet)
            assert [packet_entry(lp, e.label.bits) for e in packet] == packet
            assert len(read) == len({id(p) for p in read}) <= len(lp.shape.pieces)
            assert all(any(p is q for q in lp.shape.pieces) for p in read)
            shapes += len(packet) > 1 and not all(isinstance(p, PieceD) for p in lp.shape.pieces)
    assert shapes > 100  # shapes whose several entries are named by piece reprs


def test_local_data_reads_each_piece_repr_once(monkeypatch):
    # localize orders a tempered shape's pieces by their reprs and hands the
    # same reprs to the shape's form, so building the local data and packets
    # of the seed-1 enumerate-scaled inputs reprs each piece at most once
    # (the non-tempered rules repr pieces of their own, which are not counted)
    from mp4spectrum.multiplicity import prepare_local_data

    scenarios = [scenario_from_dict(doc) for doc in enumerate_scaled_scenarios(1)]
    read = []
    for cls, piece in ((PieceSC, PieceSC("t")), (PieceSt, PieceSt("1")), (PieceD, PieceD(Fraction(1, 2))),
                       (Piece4SC, Piece4SC("t")), (PiecePS, PiecePS("c", Fraction(0), 1))):
        repr(piece)  # puts the class's own __repr__ in place of the shared first-use stub
        monkeypatch.setattr(cls, "__repr__", lambda self, _repr=cls.__repr__: read.append(self) or _repr(self))
    pieces = []
    for sc in scenarios:
        for ld in prepare_local_data(sc.parameter, sc.places):
            assert ld.entries
            if isinstance(ld.param.shape, ShTempered):
                pieces += ld.param.shape.pieces
    ids = {id(p) for p in pieces}
    assert len(pieces) > 300 and len(ids) == len(pieces)
    shape_reads = [id(p) for p in read if id(p) in ids]
    assert len(shape_reads) == len(set(shape_reads)) <= len(pieces)
