"""Diagonal pullback, multiplicity, and the two enumeration routes."""

import itertools
import json
import math
import os
import random
import sys
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mp4spectrum.chargroups import F2Character, rref
from mp4spectrum.cli import main
from mp4spectrum.fields import GlobalElement, minus_one_element, trivial_element
from mp4spectrum import localization, packets, record, residual
from mp4spectrum.localization import (
    ShHPS,
    ShPrincipal,
    ShSK,
    ShSoudryIrreducible,
    ShSoudryNonQuadratic,
    ShTempered,
    localize,
)
from mp4spectrum.multiplicity import (
    BRUTE_FORCE_PLACE_CAP,
    ENUMERATE_LIMIT,
    AdelicCharacter,
    ScenarioTooLarge,
    brute_force_count,
    coset_size,
    diagonal_pullback,
    enumerate_constituents,
    listed_tuples,
    multiplicity,
    prepare_local_data,
)
from mp4spectrum.parameters import (
    AParameter,
    CuspidalDatum,
    ParamType,
    RhoIrreducibleSymplectic,
    RhoQuadraticPair,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    classify,
    epsilon_tilde,
)
from mp4spectrum.record import FrozenMap
from mp4spectrum.residual import residual_spectrum
from mp4spectrum.scenario import load_scenario, scenario_from_dict

from conftest import PTYPES, enumerate_draw, make_places, random_scenario_parameter
from golden_calls import FIXTURE_NAMES, FIXTURES, load_perfbench, solved_coset_size


def _trivial_eta(phi, places):
    locals_ = prepare_local_data(phi, places)
    return AdelicCharacter(tuple((ld.place.id, ld.group.trivial_character()) for ld in locals_))


def _eta_with(phi, places, flips):
    """Adelic character with given sign vectors at chosen places, trivial elsewhere."""
    locals_ = prepare_local_data(phi, places)
    comps = []
    for ld in locals_:
        if ld.place.id in flips:
            comps.append((ld.place.id, ld.group.character(flips[ld.place.id])))
        else:
            comps.append((ld.place.id, ld.group.trivial_character()))
    return AdelicCharacter(tuple(comps))


def test_pullback_trivial():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-odd-3mod4"])
    chi = trivial_element(places)
    phi = AParameter.of([(chi, 4)])
    eta = _trivial_eta(phi, places)
    assert diagonal_pullback(phi, places, eta).is_trivial


def test_pullback_two_flips_cancel():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-odd-3mod4"])
    chi = trivial_element(places)
    phi = AParameter.of([(chi, 4)])
    eta = _eta_with(phi, places, {"v1": (-1,), "v2": (-1,)})
    assert diagonal_pullback(phi, places, eta).is_trivial
    assert multiplicity(phi, places, eta) == 1
    eta_bad = _eta_with(phi, places, {"v1": (-1,)})
    assert multiplicity(phi, places, eta_bad) == 0


def _soudry_split_fixture():
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
        "rho",
        2,
        "orthogonal",
        1,
        FrozenMap({
            "v1": RhoQuadraticPair("1", "u"),
            "v2": RhoRealOrthogonalDiscrete(1),
            "v3": RhoRealOrthogonalDiscrete(2),
        }),
        dihedral=True,
        central_char="t",
    )
    return places, AParameter.of([(rho, 2)])


def test_pullback_soudry_split_place():
    # at a place where rho splits as chi_a + chi_b, eta_v = (-,+) pulls back to -1
    places, phi = _soudry_split_fixture()
    eta = _eta_with(phi, places, {"v1": (-1, 1)})
    assert diagonal_pullback(phi, places, eta).values == (-1,)
    eta2 = _eta_with(phi, places, {"v1": (-1, -1)})
    assert diagonal_pullback(phi, places, eta2).values == (1,)


def test_multiplicity_hps_all_trivial():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4"])
    one = trivial_element(places)
    t = GlobalElement(
        "t", FrozenMap({"v1": places[0].class_from_label("u"), "v2": places[1].class_from_label("1")})
    )
    phi = AParameter.of([(one, 2), (t, 2)])
    eta = _trivial_eta(phi, places)
    assert multiplicity(phi, places, eta) == 1


def test_principal_constituent_counts():
    for n in range(2, 7):
        kinds = ["nonarch-odd-1mod4", "nonarch-odd-3mod4"] * 3
        places = make_places(kinds[:n])
        chi = trivial_element(places)
        phi = AParameter.of([(chi, 4)])
        cons = enumerate_constituents(phi, places)
        assert len(cons) == 2 ** (n - 1)
        assert brute_force_count(phi, places) == 2 ** (n - 1)


def test_principal_single_place():
    places = make_places(["nonarch-odd-3mod4"])
    phi = AParameter.of([(trivial_element(places), 4)])
    assert brute_force_count(phi, places) == 1
    cons = enumerate_constituents(phi, places)
    assert len(cons) == 1
    assert cons[0].eta.signs() == (("v1", (1,)),)


def test_brute_force_cap():
    places = make_places(["nonarch-odd-1mod4"] * 7)
    phi = AParameter.of([(trivial_element(places), 4)])
    with pytest.raises(ScenarioTooLarge):
        brute_force_count(phi, places)


def test_constituents_deterministic_and_distinct(rng):
    for i in range(25):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        cons = enumerate_constituents(phi, places)
        again = enumerate_constituents(phi, places)
        assert [c.eta.signs() for c in cons] == [c.eta.signs() for c in again]
        etas = [c.eta.signs() for c in cons]
        assert len(set(etas)) == len(etas)
        members = [tuple(repr(m) for _, m in c.local_members) for c in cons]
        assert len(set(members)) == len(members)


def test_enumerate_matches_oracle_randomized(rng):
    for i in range(30):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        assert len(enumerate_constituents(phi, places)) == brute_force_count(phi, places)


@given(
    seed=st.integers(0, 2**31 - 1),
    ptype=st.sampled_from(PTYPES),
)
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_oracle_property(seed, ptype):
    places, elements, phi = random_scenario_parameter(random.Random(seed), ptype)
    assert len(enumerate_constituents(phi, places)) == brute_force_count(phi, places)


@pytest.mark.parametrize("ptype", PTYPES)
def test_enumeration_order_matches_brute_force_list(ptype):
    # the enumeration sorts index tuples; this must list exactly the
    # multiplicity-one tuples of the full product, in sort_key order
    rng = random.Random(f"order-{ptype}")
    for _ in range(8):
        places, elements, phi = random_scenario_parameter(rng, ptype)
        assert len(places) <= 6
        locals_ = prepare_local_data(phi, places)
        eps = epsilon_tilde(phi)
        expected = []
        for choice in itertools.product(*(ld.group.characters() for ld in locals_)):
            if all(
                math.prod(ch.on(ld.iota.images[i]) for ld, ch in zip(locals_, choice)) == sign
                for i, sign in enumerate(eps.values)
            ):
                expected.append(AdelicCharacter(tuple((ld.place.id, ch) for ld, ch in zip(locals_, choice))))
        expected.sort(key=AdelicCharacter.sort_key)
        cons = enumerate_constituents(phi, places, include_vanishing=True)
        assert [c.eta.signs() for c in cons] == [eta.signs() for eta in expected]


def _product_listing(locals_, target, include_vanishing):
    """(index tuple, vanishing) of every tuple of the full product meeting the definitional test, sorted."""
    listed = []
    for choice in itertools.product(*(range(len(ld.entries)) for ld in locals_)):
        entries = [ld.entries[i] for ld, i in zip(locals_, choice)]
        if all(
            math.prod(e.label.on(ld.iota.images[g]) for ld, e in zip(locals_, entries)) == sign
            for g, sign in enumerate(target.values)
        ):
            eta = AdelicCharacter(tuple((ld.place.id, e.label) for ld, e in zip(locals_, entries)))
            listed.append((eta.sort_key(), choice, any(e.is_zero for e in entries)))
    listed.sort()
    return [(choice, vanishing) for _, choice, vanishing in listed if include_vanishing or not vanishing]


@given(
    seed=st.integers(0, 2**31 - 1),
    ptype=st.sampled_from(PTYPES),
    flip=st.integers(0, 15),
    include_vanishing=st.booleans(),
)
@example(seed=2, ptype="howe-ps", flip=1, include_vanishing=True)  # unsolvable
@settings(max_examples=150, deadline=None)
def test_listed_tuples_are_the_product_filtered_in_order(seed, ptype, flip, include_vanishing):
    # listed_tuples against the full product of entries with the definitional
    # test; eps~ is flipped on some generators, which makes some systems
    # unsolvable, where nothing may be listed
    places, elements, phi = random_scenario_parameter(random.Random(seed), ptype)
    assert len(places) <= BRUTE_FORCE_PLACE_CAP
    locals_ = prepare_local_data(phi, places)
    eps = epsilon_tilde(phi)
    target = F2Character(eps.group, eps.bits ^ (flip & ((1 << len(eps.group.basis)) - 1)))
    module = sys.modules["mp4spectrum.multiplicity"]
    rows = [[(i,) for i in range(len(ld.entries))] for ld in locals_]
    with mock.patch.object(module, "epsilon_tilde", lambda _: target):
        laid = listed_tuples(phi, locals_, rows, (False, True), include_vanishing)
    n = len(locals_)
    listed = [(tuple(laid[i : i + n]), laid[i + n]) for i in range(0, len(laid), n + 1)]
    assert listed == _product_listing(locals_, target, include_vanishing)


def _fixture_locals():
    """(name, parameter, eps~, local data) of each bundled fixture."""
    for name in FIXTURE_NAMES:
        sc = load_scenario(os.path.join(FIXTURES, f"{name}.json"))
        yield name, sc.parameter, epsilon_tilde(sc.parameter), prepare_local_data(sc.parameter, sc.places)


def test_coset_size_is_the_affine_solve_on_the_fixtures():
    # every flip of eps~ on every fixture, over all its places and over each
    # place alone: the span of the residues counts what the affine solve over
    # the concatenated character masks counts, and eps~ itself counts what
    # enumerate lists with the vanishing tuples
    sizes = []
    for name, phi, eps, locals_ in _fixture_locals():
        for part, flip in itertools.product([locals_, *([ld] for ld in locals_)], range(1 << len(eps.group.basis))):
            sizes.append(coset_size(eps.bits ^ flip, part))
            assert sizes[-1] == solved_coset_size(eps.bits ^ flip, part), (name, part[0].place.id, len(part), flip)
        places = [ld.place for ld in locals_]
        assert coset_size(eps.bits, locals_) == len(enumerate_constituents(phi, places, include_vanishing=True))
    assert 0 in sizes and max(sizes) > 1


@given(seed=st.integers(0, 2**31 - 1), ptype=st.sampled_from(PTYPES), flip=st.integers(0, 15))
@example(seed=2, ptype="howe-ps", flip=1)  # unsolvable
@settings(max_examples=150, deadline=None)
def test_coset_size_is_the_affine_solve_property(seed, ptype, flip):
    # eps~ flipped on some generators, as in the listing test, so unsolvable systems are drawn too
    places, elements, phi = random_scenario_parameter(random.Random(seed), ptype)
    locals_ = prepare_local_data(phi, places)
    eps = epsilon_tilde(phi)
    target = eps.bits ^ (flip & ((1 << len(eps.group.basis)) - 1))
    assert coset_size(target, locals_) == solved_coset_size(target, locals_)


@pytest.mark.parametrize("places", [64, 256])
@pytest.mark.parametrize("family", PTYPES)
def test_coset_size_counts_where_no_listing_runs(family, places):
    # generated parameters far above ENUMERATE_LIMIT: the span count equals
    # the affine solve on every flip of eps~ and, on eps~ itself, the
    # character sum with the vanishing tuples included
    rng = random.Random(f"coset-{family}-{places}")
    doc = enumerate_draw(rng, family, places, places)
    sc = scenario_from_dict(doc)
    locals_ = prepare_local_data(sc.parameter, sc.places)
    eps = epsilon_tilde(sc.parameter)
    expected = load_perfbench("oracle").character_sum_count(sc.parameter, sc.places, nonzero_only=False)
    assert expected > ENUMERATE_LIMIT
    assert coset_size(eps.bits, locals_) == solved_coset_size(eps.bits, locals_) == expected
    for flip in range(1, 1 << len(eps.group.basis)):
        assert coset_size(eps.bits ^ flip, locals_) == solved_coset_size(eps.bits ^ flip, locals_)


def test_a_draw_out_of_the_familys_reach_fails_instead_of_hanging():
    # a Saito-Kurokawa parameter at n = 24 places has 2^(2n - k - 2) tuples for
    # k < n principal-series places, so m = 20 would need k = 26: every draw is
    # None, and enumerate_draw gives up after its cap
    message = "^no saito-kurokawa scenario at 24 places with m = 20 in 1000 draws$"
    with pytest.raises(pytest.fail.Exception, match=message):
        enumerate_draw(random.Random("out-of-reach"), "saito-kurokawa", 24, 20)


def test_an_unsolvable_system_lists_nothing_under_any_limit(monkeypatch):
    # solvability is read before the limit: with ENUMERATE_LIMIT at 1, an
    # eps~ outside the span lists nothing and raises nothing, though its
    # kernel has more than one element, while eps~ itself is refused
    module = sys.modules["mp4spectrum.multiplicity"]
    monkeypatch.setattr(module, "ENUMERATE_LIMIT", 1)
    unsolvable = 0
    for name, phi, eps, locals_ in _fixture_locals():
        rows = [[(i,) for i in range(len(ld.entries))] for ld in locals_]
        if solved_coset_size(eps.bits, locals_) > 1:
            with pytest.raises(ScenarioTooLarge):
                listed_tuples(phi, locals_, rows, (False, True), True)
        if solved_coset_size(0, locals_) == 1:
            continue
        for flip in range(1, 1 << len(eps.group.basis)):
            if solved_coset_size(eps.bits ^ flip, locals_):
                continue
            target = F2Character(eps.group, eps.bits ^ flip)
            with mock.patch.object(module, "epsilon_tilde", lambda _: target):
                assert listed_tuples(phi, locals_, rows, (False, True), True) == []
            unsolvable += 1
    assert unsolvable >= 2


def test_enumerate_lists_a_scenario_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1,500 places, all but a few with a trivial local group (two tempered
    # principal-series pieces): a walk that recursed once per place would
    # raise RecursionError
    places = 1500
    assert places > sys.getrecursionlimit()
    rng = random.Random("deep")
    doc = enumerate_draw(rng, "tempered", places, 3)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    expected = load_perfbench("oracle").character_sum_count(sc.parameter, sc.places)
    assert expected > 1
    assert main(["enumerate", "--scenario", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == len(data["constituents"]) == expected
    assert all(len(c["eta"]) == places for c in data["constituents"])


def test_multiplicity_sk_wrong_parity_is_zero():
    # eps(1/2, rho x chi_a) = -1 but all local eps_2 trivial: multiplicity 0
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
        "rho",
        2,
        "symplectic",
        1,
        FrozenMap({
            "v1": RhoIrreducibleSymplectic("sc1", -1, FrozenMap({"u": 1, "p": -1, "up": 1})),
            "v2": RhoRealDiscrete(2),
            "v3": RhoRealDiscrete(1),
        }),
        twisted_roots=FrozenMap({"t": -1}),
    )
    phi = AParameter.of([(rho, 1), (t, 2)])
    assert multiplicity(phi, places, _trivial_eta(phi, places)) == 0


def test_sk_enumeration_can_be_empty_with_vanishing_member():
    # one place, forced character, and the forced member is the vanishing one
    places = make_places(["nonarch-odd-3mod4"])
    t = GlobalElement("t", FrozenMap({"v1": places[0].class_from_label("u")}))
    from mp4spectrum.parameters import RhoSteinberg

    rho = CuspidalDatum(
        "rho",
        2,
        "symplectic",
        -1,
        FrozenMap({"v1": RhoSteinberg("u", -1, FrozenMap({"u": -1, "p": 1, "up": 1}))}),
        twisted_roots=FrozenMap({"t": -1}),
    )
    phi = AParameter.of([(rho, 1), (t, 2)])
    # eps~ = (+1, -1) forces eta = ((+,-)) whose member is Zero
    assert enumerate_constituents(phi, places) == []
    assert brute_force_count(phi, places) == 0
    verbose = enumerate_constituents(phi, places, include_vanishing=True)
    assert len(verbose) == 1 and verbose[0].has_zero_member


def test_constituent_order_all_plus_first():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-odd-3mod4"])
    phi = AParameter.of([(trivial_element(places), 4)])
    cons = enumerate_constituents(phi, places)
    assert cons[0].eta.signs() == (("v1", (1,)), ("v2", (1,)), ("v3", (1,)))
    keys = [c.eta.sort_key() for c in cons]
    assert keys == sorted(keys)


def test_verbose_mode_includes_vanishing_tuples():
    # SK fixture with a kappa = 1 real place has admissible tuples with a zero member
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
        "rho",
        2,
        "symplectic",
        1,
        FrozenMap({
            "v1": RhoIrreducibleSymplectic("sc1", -1, FrozenMap({"u": 1, "p": -1, "up": 1})),
            "v2": RhoRealDiscrete(2),
            "v3": RhoRealDiscrete(1),
        }),
        twisted_roots=FrozenMap({"t": -1}),
    )
    phi = AParameter.of([(rho, 1), (t, 2)])
    plain = enumerate_constituents(phi, places)
    verbose = enumerate_constituents(phi, places, include_vanishing=True)
    assert len(verbose) > len(plain)
    assert all(c.has_zero_member for c in verbose if c not in plain)


def test_pullback_is_homomorphism(rng):
    for i in range(10):
        places, elements, phi = random_scenario_parameter(rng, PTYPES[i % len(PTYPES)])
        locals_ = prepare_local_data(phi, places)
        chars = [ld.group.characters() for ld in locals_]
        # two random-ish adelic characters: first and last of each local list
        eta1 = AdelicCharacter(tuple((ld.place.id, cs[0]) for ld, cs in zip(locals_, chars)))
        eta2 = AdelicCharacter(tuple((ld.place.id, cs[-1]) for ld, cs in zip(locals_, chars)))
        prod = AdelicCharacter(
            tuple((ld.place.id, cs[0] * cs[-1]) for ld, cs in zip(locals_, chars))
        )
        p1 = diagonal_pullback(phi, places, eta1)
        p2 = diagonal_pullback(phi, places, eta2)
        pp = diagonal_pullback(phi, places, prod)
        assert pp.values == tuple(a * b for a, b in zip(p1.values, p2.values))


def test_local_wiggle_preserves_multiplicity(rng):
    # flipping eta at one place by a character trivial on the image of the
    # localization map never changes the multiplicity
    for i in range(15):
        places, elements, phi = random_scenario_parameter(rng, PTYPES[i % len(PTYPES)])
        locals_ = prepare_local_data(phi, places)
        eta = AdelicCharacter(
            tuple((ld.place.id, ld.group.trivial_character()) for ld in locals_)
        )
        base = multiplicity(phi, places, eta)
        for k, ld in enumerate(locals_):
            for kappa in ld.group.characters():
                if not all(kappa.on(m) == 1 for m in ld.iota.images):
                    continue
                comps = list(eta.components)
                comps[k] = (ld.place.id, comps[k][1] * kappa)
                assert multiplicity(phi, places, AdelicCharacter(tuple(comps))) == base


def test_constraint_rank_law(rng):
    # for SK/HPS with free local groups and no vanishing members:
    # count = 2^(sum of local ranks - rank of the parity system)
    checked = 0
    for i in range(60):
        ptype = ("saito-kurokawa", "howe-ps")[i % 2]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        locals_ = prepare_local_data(phi, places)
        if any(ld.group.relations for ld in locals_):
            continue
        if any(e.is_zero for ld in locals_ for e in ld.entries):
            continue
        eps = epsilon_tilde(phi)
        rows = []
        for gi in range(len(eps.group.basis)):
            row = 0
            for ld in locals_:
                row = (row << len(ld.group.basis)) | ld.iota.images[gi]
            rows.append(row)
        sysrank = len(rref(rows))
        total_rank = sum(ld.group.rank for ld in locals_)
        count = len(enumerate_constituents(phi, places))
        solvable = count > 0
        if solvable:
            assert count == 2 ** (total_rank - sysrank)
            checked += 1
    assert checked >= 5


ROUTES = ("enumerate", "brute_force_count", "multiplicity", "residual_spectrum", "packet", "component-group")


SHAPES = (ShPrincipal, ShSK, ShHPS, ShSoudryIrreducible, ShSoudryNonQuadratic, ShTempered)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_reads_local_data(route, monkeypatch, capsys):
    # local_data is the one constructor of LocalData and local_shape the one
    # construction of a local shape: each route builds no LocalData but
    # through local_data, localizes only through it, and builds no shape but
    # through local_shape, whose shapes are the ones every LocalData and
    # designated member reads.  residual_spectrum reads its designated
    # members from local shapes alone, and on sk.json no P1 constituent
    # reads a label other than all-plus, so it builds no LocalData there
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "sk.json")
    sc = load_scenario(path)
    phi, places = sc.parameter, sc.places
    eta = _trivial_eta(phi, places)
    module = sys.modules["mp4spectrum.multiplicity"]
    counts = dict.fromkeys(("local_data", "localize", "local_shape", "LocalData", "shapes", "designated"), 0)
    shaped, read = [], []  # the shapes local_shape returns; the shapes each LocalData and designated member reads

    def counted(name, original, after=None):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    for name, home, after in (
        ("local_data", module, None),
        ("localize", module, None),
        ("local_shape", localization, lambda args, result: shaped.append(result[0])),
    ):
        original = getattr(home, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "mp4spectrum" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name, original, after))
    init = counted("LocalData", module.LocalData.__init__, lambda args, _: read.append(args[1].shape))
    monkeypatch.setattr(module.LocalData, "__init__", init)  # args: self, param, iota
    designate = counted("designated", packets.designated_l_packet_member, lambda args, _: read.append(args[0].shape))
    monkeypatch.setattr(residual, "designated_l_packet_member", designate)
    for cls in SHAPES:  # each class's own __init__, which its first-use stub would put back in place of a wrapper
        monkeypatch.setattr(cls, "__init__", counted("shapes", record._method(cls, "__init__")))
    if route == "enumerate":
        enumerate_constituents(phi, places)
    elif route == "brute_force_count":
        brute_force_count(phi, places)
    elif route == "multiplicity":
        multiplicity(phi, places, eta)
    elif route == "residual_spectrum":
        residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil)
    else:
        assert main([route, "--scenario", path] + (["--place", places[0].id] if route == "packet" else [])) == 0
    assert counts["LocalData"] == counts["localize"] == counts["local_data"]
    assert counts["shapes"] == counts["local_shape"] == len(shaped) > 0
    assert read and all(any(shape is s for s in shaped) for shape in read)
    if route == "residual_spectrum":
        assert counts["local_data"] == 0 < counts["designated"] <= counts["local_shape"]
    else:
        assert counts["local_data"] > 0 and counts["local_shape"] == counts["localize"]
