"""Localization: shapes, local groups, canonical maps."""

import itertools
from fractions import Fraction

import pytest

from mp4spectrum.fields import GlobalElement, Place, minus_one_element, trivial_element
from mp4spectrum.localization import (
    PieceD,
    PieceSC,
    PieceSt,
    ShHPS,
    ShSK,
    ShSoudryNonQuadratic,
    ShTempered,
    localize,
)
from mp4spectrum.parameters import (
    AParameter,
    CuspidalDatum,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoQuadraticPair,
    RhoRealDiscrete,
    RhoReducibleOrthogonal,
    RhoSteinberg,
)

from conftest import PTYPES, make_places, random_scenario_parameter


def _sk_parameter(shape_v1):
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        {
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        },
    )
    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="symplectic",
        global_root=-1,
        local={"v1": shape_v1, "v2": RhoRealDiscrete(2), "v3": RhoRealDiscrete(1)},
        twisted_roots={},
    )
    return places, AParameter.of([(rho, 1), (t, 2)])


def test_sk_reducible_place_kills_first_generator():
    shape = RhoPrincipalSeries("mu", Fraction(1, 4), 1)
    places, phi = _sk_parameter(shape)
    lp, group, iota = localize(phi, places[0])
    assert isinstance(lp.shape, ShSK)
    assert group.relations == ((1, 0),)
    chars = group.characters()
    assert [c.values for c in chars] == [(1, 1), (1, -1)]
    # a1 maps into the killed factor: every character is trivial on its image
    for ch in chars:
        assert ch.on(iota.image_of_generator(0)) == 1
    assert any(ch.on(iota.image_of_generator(1)) == -1 for ch in chars)


def test_sk_irreducible_place_is_free():
    shape = RhoIrreducibleSymplectic("sc", -1, {"u": 1, "p": 1, "up": 1})
    places, phi = _sk_parameter(shape)
    lp, group, iota = localize(phi, places[0])
    assert group.relations == ()
    assert len(group.characters()) == 4
    assert iota.rows == ((1, 0), (0, 1))


def _hps_parameter(cls1, cls2):
    places = make_places(["nonarch-odd-3mod4", "nonarch-odd-3mod4"])
    e1 = GlobalElement(
        "s", {"v1": places[0].class_from_label(cls1[0]), "v2": places[1].class_from_label(cls1[1])}
    )
    e2 = GlobalElement(
        "t", {"v1": places[0].class_from_label(cls2[0]), "v2": places[1].class_from_label(cls2[1])}
    )
    return places, AParameter.of([(e1, 2), (e2, 2)])


def test_hps_equal_classes_quotient():
    places, phi = _hps_parameter(("u", "u"), ("u", "1"))
    lp, group, iota = localize(phi, places[0])
    assert group.relations == ((1, 1),)
    chars = group.characters()
    assert [c.values for c in chars] == [(1, 1), (-1, -1)]
    # both generators land on the same class
    assert iota.rows == ((1, 0), (0, 1))
    for ch in chars:
        assert ch.on(iota.image_of_generator(0)) == ch.on(iota.image_of_generator(1))
    lp2, group2, _ = localize(phi, places[1])
    assert group2.relations == ()
    assert len(group2.characters()) == 4


def _soudry_parameter(shape_v1):
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        {
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        },
    )
    from mp4spectrum.parameters import RhoRealOrthogonalDiscrete

    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local={
            "v1": shape_v1,
            "v2": RhoRealOrthogonalDiscrete(1),
            "v3": RhoRealOrthogonalDiscrete(2),
        },
        dihedral=True,
        central_char="t",
    )
    return places, AParameter.of([(rho, 2)])


def test_soudry_split_place_maps_to_sum():
    places, phi = _soudry_parameter(RhoQuadraticPair("1", "u"))
    lp, group, iota = localize(phi, places[0])
    assert isinstance(lp.shape, ShHPS)
    assert iota.rows == ((1, 1),)
    # eta(image of a1) = eps1 eps2 on the rank-2 local group
    for ch in group.characters():
        e1, e2 = ch.values
        assert ch.on(iota.image_of_generator(0)) == e1 * e2


def test_soudry_nonquadratic_place_trivial_group():
    places, phi = _soudry_parameter(RhoReducibleOrthogonal("mu"))
    # the central character t is nontrivial at v1, so chi + chi^-1 is not
    # allowed there; move the shape check to a place where t is trivial
    places2 = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        {
            "v1": places2[0].class_from_label("1"),
            "v2": places2[1].class_from_label("-1"),
            "v3": places2[2].class_from_label("-1"),
        },
    )
    from mp4spectrum.parameters import RhoRealOrthogonalDiscrete

    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local={
            "v1": RhoReducibleOrthogonal("mu"),
            "v2": RhoRealOrthogonalDiscrete(1),
            "v3": RhoRealOrthogonalDiscrete(2),
        },
        dihedral=True,
        central_char="t",
    )
    phi = AParameter.of([(rho, 2)])
    lp, group, iota = localize(phi, places2[0])
    assert isinstance(lp.shape, ShSoudryNonQuadratic)
    assert group.rank == 0
    assert group.characters()[0].values == ()


def test_tempered_pieces_and_relations():
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    sc = RhoIrreducibleSymplectic("sc", -1, {"u": 1, "p": 1, "up": 1})
    st = RhoSteinberg("u", 1, {"u": 1, "p": 1, "up": 1})
    rho1 = CuspidalDatum(
        "rho1", 2, "symplectic", -1,
        {"v1": sc, "v2": RhoRealDiscrete(2), "v3": RhoRealDiscrete(1)},
    )
    rho2 = CuspidalDatum(
        "rho2", 2, "symplectic", -1,
        {"v1": st, "v2": RhoRealDiscrete(1), "v3": RhoRealDiscrete(1)},
    )
    phi = AParameter.of([(rho1, 1), (rho2, 1)])
    lp, group, iota = localize(phi, places[0])
    assert isinstance(lp.shape, ShTempered)
    assert set(map(type, lp.shape.pieces)) == {PieceSC, PieceSt}
    assert group.relations == ()
    # real place with distinct parameters D_{3/2}, D_{1/2}: free of rank 2,
    # larger parameter listed first
    lp2, group2, iota2 = localize(phi, places[1])
    assert lp2.shape.pieces == (PieceD(Fraction(3, 2)), PieceD(Fraction(1, 2)))
    assert group2.relations == ()
    # rho1 owns the D_{3/2} piece at v2
    assert iota2.rows[phi.basis_labels().index("rho1&S1")] == (1, 0)
    # real place where both localize to D_{1/2}: diagonal relation
    lp3, group3, _ = localize(phi, places[2])
    assert group3.relations == ((0, 1), (1, 0)) or len(group3.relations) == 1
    assert len(group3.characters()) == 2


def test_localization_maps_are_linear_everywhere(rng):
    for i in range(40):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        for place in places:
            lp, group, iota = localize(phi, place)
            n = len(iota.source_basis)
            for x in itertools.product((0, 1), repeat=n):
                for y in itertools.product((0, 1), repeat=n):
                    xy = tuple(a ^ b for a, b in zip(x, y))
                    assert iota.image(xy) == tuple(
                        a ^ b for a, b in zip(iota.image(x), iota.image(y))
                    )
            assert len(group.characters()) in (1, 2, 4)
