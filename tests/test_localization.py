"""Localization: shapes, local groups, canonical maps."""

import os
from fractions import Fraction

import pytest

from mp4spectrum import localization
from mp4spectrum.chargroups import ComponentGroup, LocalizationMap
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
    ParamType,
    classify,
    CuspidalDatum,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoQuadraticPair,
    RhoRealDiscrete,
    RhoReducibleOrthogonal,
    RhoSteinberg,
)
from mp4spectrum.record import FrozenMap
from mp4spectrum.scenario import load_scenario, scenario_from_dict

from conftest import PTYPES, make_places, random_scenario_parameter
from golden_calls import FIXTURE_NAMES, FIXTURES, enumerate_scaled_scenarios


def _sk_parameter(shape_v1):
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        FrozenMap({
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        }),
    )
    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="symplectic",
        global_root=-1,
        local=FrozenMap({"v1": shape_v1, "v2": RhoRealDiscrete(2), "v3": RhoRealDiscrete(1)}),
        twisted_roots=FrozenMap(),
    )
    return places, AParameter.of([(rho, 1), (t, 2)])


def test_sk_reducible_place_kills_first_generator():
    shape = RhoPrincipalSeries("mu", Fraction(1, 4), 1)
    places, phi = _sk_parameter(shape)
    lp, group, iota = localize(phi, places[0])
    assert isinstance(lp.shape, ShSK)
    assert group.relations == (0b10,)
    chars = group.characters()
    assert [c.values for c in chars] == [(1, 1), (1, -1)]
    # a1 maps into the killed factor: every character is trivial on its image
    for ch in chars:
        assert ch.on(iota.images[0]) == 1
    assert any(ch.on(iota.images[1]) == -1 for ch in chars)


def test_sk_irreducible_place_is_free():
    shape = RhoIrreducibleSymplectic("sc", -1, FrozenMap({"u": 1, "p": 1, "up": 1}))
    places, phi = _sk_parameter(shape)
    lp, group, iota = localize(phi, places[0])
    assert group.relations == ()
    assert len(group.characters()) == 4
    assert iota.rows == ((1, 0), (0, 1))


def _hps_parameter(cls1, cls2):
    places = make_places(["nonarch-odd-3mod4", "nonarch-odd-3mod4"])
    e1 = GlobalElement(
        "s", FrozenMap({"v1": places[0].class_from_label(cls1[0]), "v2": places[1].class_from_label(cls1[1])})
    )
    e2 = GlobalElement(
        "t", FrozenMap({"v1": places[0].class_from_label(cls2[0]), "v2": places[1].class_from_label(cls2[1])})
    )
    return places, AParameter.of([(e1, 2), (e2, 2)])


def test_hps_equal_classes_quotient():
    places, phi = _hps_parameter(("u", "u"), ("u", "1"))
    lp, group, iota = localize(phi, places[0])
    assert group.relations == (0b11,)
    chars = group.characters()
    assert [c.values for c in chars] == [(1, 1), (-1, -1)]
    # both generators land on the same class
    assert iota.rows == ((1, 0), (0, 1))
    for ch in chars:
        assert ch.on(iota.images[0]) == ch.on(iota.images[1])
    lp2, group2, _ = localize(phi, places[1])
    assert group2.relations == ()
    assert len(group2.characters()) == 4


def _soudry_parameter(shape_v1):
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        FrozenMap({
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        }),
    )
    from mp4spectrum.parameters import RhoRealOrthogonalDiscrete

    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local=FrozenMap({
            "v1": shape_v1,
            "v2": RhoRealOrthogonalDiscrete(1),
            "v3": RhoRealOrthogonalDiscrete(2),
        }),
        dihedral=True,
        central_char="t",
    )
    return places, AParameter.of([(rho, 2)])


def test_soudry_split_place_maps_to_sum():
    places, phi = _soudry_parameter(RhoQuadraticPair("1", "u"))
    lp, group, iota = localize(phi, places[0])
    assert isinstance(lp.shape, ShHPS)
    assert iota.images == (0b11,) and iota.rows == ((1, 1),)
    # eta(image of a1) = eps1 eps2 on the rank-2 local group
    for ch in group.characters():
        e1, e2 = ch.values
        assert ch.on(iota.images[0]) == e1 * e2


def test_soudry_nonquadratic_place_trivial_group():
    places, phi = _soudry_parameter(RhoReducibleOrthogonal("mu"))
    # the central character t is nontrivial at v1, so chi + chi^-1 is not
    # allowed there; move the shape check to a place where t is trivial
    places2 = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        FrozenMap({
            "v1": places2[0].class_from_label("1"),
            "v2": places2[1].class_from_label("-1"),
            "v3": places2[2].class_from_label("-1"),
        }),
    )
    from mp4spectrum.parameters import RhoRealOrthogonalDiscrete

    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local=FrozenMap({
            "v1": RhoReducibleOrthogonal("mu"),
            "v2": RhoRealOrthogonalDiscrete(1),
            "v3": RhoRealOrthogonalDiscrete(2),
        }),
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
    sc = RhoIrreducibleSymplectic("sc", -1, FrozenMap({"u": 1, "p": 1, "up": 1}))
    st = RhoSteinberg("u", 1, FrozenMap({"u": 1, "p": 1, "up": 1}))
    rho1 = CuspidalDatum(
        "rho1", 2, "symplectic", -1,
        FrozenMap({"v1": sc, "v2": RhoRealDiscrete(2), "v3": RhoRealDiscrete(1)}),
    )
    rho2 = CuspidalDatum(
        "rho2", 2, "symplectic", -1,
        FrozenMap({"v1": st, "v2": RhoRealDiscrete(1), "v3": RhoRealDiscrete(1)}),
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
    assert group3.relations == (0b11,)
    assert len(group3.characters()) == 2


def test_localization_maps_are_linear_everywhere(rng):
    for i in range(40):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        for place in places:
            lp, group, iota = localize(phi, place)
            width = len(group.basis)
            assert len(iota.images) == len(phi.basis_labels())
            assert all(0 <= m < 1 << width for m in iota.images)
            assert iota.rows == tuple(tuple((m >> (width - 1 - j)) & 1 for j in range(width)) for m in iota.images)
            chars = group.characters()
            for a in chars:
                for b in chars:
                    assert iota.pullback(a * b) == iota.pullback(a) ^ iota.pullback(b)
            assert len(chars) in (1, 2, 4)


@pytest.mark.parametrize("ptype", PTYPES)
def test_generated_parameters_and_their_local_parameters_hash(rng, ptype):
    # conftest passes FrozenMap maps, so a generated parameter can key a memo,
    # as residual_spectrum keys designated members by LocalParam
    places, elements, phi = random_scenario_parameter(rng, ptype)
    hash(phi)
    for place in places:
        assert hash(localize(phi, place)[0]) == hash(localize(phi, place)[0])


# every local group localize hands out: the module constants
CONSTANT_GROUPS = (
    *(getattr(localization, name) for name in ("_TRIVIAL", "_RANK1", "_FREE2", "_FIRST2", "_DIAGONAL2")),
    *localization._TEMPERED[1:],
    localization._REPEATED,
)
# the seven maps of the non-tempered shapes and the ten tempered ones: one or two summands share out at most two
# generators, (0,) on no generator being the Soudry chi^2 != 1 map
MAPS_BOUND = 17


def _localized_inputs(rng):
    """(places, parameter) of the fixtures, 200 generated scenarios and the enumerate-scaled inputs of seeds 1 and 2."""
    inputs = []
    for name in FIXTURE_NAMES:
        sc = load_scenario(os.path.join(FIXTURES, f"{name}.json"))
        inputs.append((sc.places, sc.parameter))
    for i in range(200):
        places, _, phi = random_scenario_parameter(rng, PTYPES[i % len(PTYPES)])
        inputs.append((places, phi))
    for seed in (1, 2):
        for doc in enumerate_scaled_scenarios(seed):
            sc = scenario_from_dict(doc)
            inputs.append((sc.places, sc.parameter))
    return inputs


def test_localizations_share_their_groups_and_maps(rng, monkeypatch):
    inputs = _localized_inputs(rng)
    for places, phi in inputs:  # warm-up
        for place in places:
            localize(phi, place)
    # every shared map is equal, hash-equal and repr-equal to a freshly built
    # one, on one of the constant groups; no key holds input text
    keys = set(localization._MAPS)
    assert len(keys) <= MAPS_BOUND
    for (group_id, images), iota in localization._MAPS.items():
        assert group_id == id(iota.target) and images == iota.images
        assert any(iota.target is g for g in CONSTANT_GROUPS)
        assert 1 <= len(images) <= 2 and all(0 <= m < 1 << len(iota.target.basis) for m in images)
        fresh = LocalizationMap(ComponentGroup(iota.target.basis, iota.target.relations), iota.images)
        assert (fresh, hash(fresh), repr(fresh)) == (iota, hash(iota), repr(iota))
        assert (hash(fresh.target), repr(fresh.target)) == (hash(iota.target), repr(iota.target))
    # once warm, localize builds neither a group nor a map, tempered shapes included
    built = []
    for cls in (ComponentGroup, LocalizationMap):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, **k: built.append(self) or _init(self, *a, **k))
    reached, families = set(), set()
    for places, phi in inputs:
        for place in places:
            lp, group, iota = localize(phi, place)
            assert group is iota.target and iota is localization._MAPS[id(group), iota.images]
            assert any(group is g for g in CONSTANT_GROUPS)
            reached.add(id(group))
            families.add(classify(phi))
    assert built == [] and families == set(ParamType)
    assert reached == {id(g) for g in CONSTANT_GROUPS}
    assert set(localization._MAPS) == keys
