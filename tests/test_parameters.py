"""Parameter classification, component groups, and the sign character."""

import itertools
import random

import pytest

from mp4spectrum import parameters
from mp4spectrum.fields import GlobalElement, minus_one_element, trivial_element
from mp4spectrum.parameters import (
    AParameter,
    CuspidalDatum,
    InvalidParameter,
    MissingSignData,
    ParamType,
    RhoPrincipalSeries,
    classify,
    component_group,
    epsilon_tilde,
)
from mp4spectrum.record import FrozenMap

from conftest import (
    PTYPES,
    make_places,
    random_scenario_parameter,
    soudry_datum,
    symplectic_datum,
)


def _places():
    return make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4"])


def _ps_shapes(places):
    from fractions import Fraction

    return FrozenMap({p.id: RhoPrincipalSeries("mu", Fraction(0), 1) for p in places})


def test_classify_principal():
    places = _places()
    chi = trivial_element(places)
    assert classify(AParameter.of([(chi, 4)])) is ParamType.PRINCIPAL


def test_classify_saito_kurokawa():
    places = _places()
    chi = trivial_element(places)
    rho = symplectic_datum("rho", places, _ps_shapes(places), [chi])
    phi = AParameter.of([(rho, 1), (chi, 2)])
    assert classify(phi) is ParamType.SAITO_KUROKAWA


def test_classify_rejects_repeated_summand():
    places = _places()
    chi = trivial_element(places)
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(chi, 2), (chi, 2)]))


def test_classify_rejects_wrong_parity():
    places = _places()
    chi = trivial_element(places)
    rho = symplectic_datum("rho", places, _ps_shapes(places), [chi])
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(rho, 2)]))  # even d needs an orthogonal datum
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(chi, 1), (chi, 2), (rho, 1)]))  # odd d on a character


def test_classify_rejects_wrong_total():
    places = _places()
    chi = trivial_element(places)
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(chi, 2)]))


def test_soudry_needs_dihedral_and_central_character():
    places = _places()
    m1 = minus_one_element(places)
    # places chosen so that -1 is trivial at v1 and nontrivial at v2
    rho = soudry_datum(random.Random(1), "rho", places, m1)
    assert classify(AParameter.of([(rho, 2)])) is ParamType.SOUDRY
    flat = CuspidalDatum(
        name="rho2",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local=rho.local,
        dihedral=False,
        central_char=m1.name,
    )
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(flat, 2)]))
    trivial_cc = CuspidalDatum(
        name="rho3",
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local=rho.local,
        dihedral=True,
        central_char="1",
    )
    with pytest.raises(InvalidParameter):
        classify(AParameter.of([(trivial_cc, 2)]))


def _chain_validated_type(phi: AParameter) -> ParamType:
    """parameters._validated_type as it matched a profile by a chain of list comparisons, frozen as a reference."""
    total = 0
    seen = set()
    profile = []
    for datum, d in phi.summands:
        if d < 1:
            raise InvalidParameter("S_d index must be positive")
        element = isinstance(datum, GlobalElement)
        dim = 1 if element else datum.gl_rank
        total += dim * d
        key = (datum.name, d)
        if key in seen:
            raise InvalidParameter(f"repeated summand {key}")
        seen.add(key)
        dual = "orthogonal" if element else datum.duality
        if d % 2 == 1 and dual != "symplectic":
            raise InvalidParameter(f"{datum.name} x S_{d}: odd d needs a symplectic datum")
        if d % 2 == 0 and dual != "orthogonal":
            raise InvalidParameter(f"{datum.name} x S_{d}: even d needs an orthogonal datum")
        profile.append((dim, d))
    if total != 4:
        raise InvalidParameter(f"summand dimensions total {total}, need 4")
    profile.sort()
    if all(d == 1 for _, d in profile):
        return ParamType.TEMPERED
    if profile == [(1, 4)]:
        return ParamType.PRINCIPAL
    if profile == [(1, 2), (1, 2)]:
        return ParamType.HOWE_PS
    if profile == [(1, 2), (2, 1)]:
        return ParamType.SAITO_KUROKAWA
    if profile == [(2, 2)]:
        datum = phi.summands[0][0]
        assert isinstance(datum, CuspidalDatum)
        if not datum.dihedral:
            raise InvalidParameter("rho x S_2 requires a dihedral datum")
        if datum.trivial_central_char:
            raise InvalidParameter("rho x S_2 requires a nontrivial quadratic central character")
        return ParamType.SOUDRY
    raise InvalidParameter(f"no elliptic shape matches profile {profile}")


def _outcome(validated_type, phi):
    """The type validated_type gives phi, or the class and message of what it raises."""
    try:
        return validated_type(phi)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


def test_profile_lookup_matches_the_comparison_chain():
    # every ordered tuple of one to three summands over two elements, GL(2)
    # data of each duality and Soudry condition, and a GL(4) datum, at
    # d = 0..4: the same type, or the same exception and message, as the
    # chain of list comparisons the profile lookup replaced
    places = _places()
    data = [trivial_element(places), minus_one_element(places)]
    for name, rank, duality, dihedral, central in (
        ("s2", 2, "symplectic", False, "1"),
        ("t2", 2, "symplectic", False, "1"),
        ("o2", 2, "orthogonal", True, "-1"),
        ("n2", 2, "orthogonal", False, "-1"),
        ("c2", 2, "orthogonal", True, "1"),
        ("s4", 4, "symplectic", False, "1"),
    ):
        data.append(CuspidalDatum(name, rank, duality, 1, FrozenMap(), dihedral=dihedral, central_char=central))
    pool = list(itertools.product(data, range(5)))
    types, messages = set(), set()
    for n in (1, 2, 3):
        for summands in itertools.product(pool, repeat=n):
            phi = AParameter(summands)
            chain = _outcome(_chain_validated_type, phi)
            assert _outcome(parameters._validated_type, phi) == chain, summands
            if isinstance(chain, ParamType):
                types.add(chain)
            else:
                messages.add(chain[1])
    # the grid reaches every type and every check but the last raise, which no profile of total 4 reaches
    assert types == set(ParamType)
    for check in ("positive", "repeated", "odd d", "even d", "total", "dihedral", "central character"):
        assert any(check in m for m in messages), check


def test_five_types_partition_generated_shapes(rng):
    seen = set()
    for i in range(60):
        ptype = PTYPES[i % len(PTYPES)]
        places, elements, phi = random_scenario_parameter(rng, ptype)
        got = classify(phi)
        seen.add(got)
        expected = {
            "principal": ParamType.PRINCIPAL,
            "saito-kurokawa": ParamType.SAITO_KUROKAWA,
            "howe-ps": ParamType.HOWE_PS,
            "soudry": ParamType.SOUDRY,
            "tempered": ParamType.TEMPERED,
        }[ptype]
        assert got is expected
    assert seen == set(ParamType)


def test_component_group_ranks():
    places = _places()
    chi = trivial_element(places)
    m1 = minus_one_element(places)
    rho = symplectic_datum("rho", places, _ps_shapes(places), [chi])
    assert component_group(AParameter.of([(chi, 4)])).rank == 1
    assert component_group(AParameter.of([(rho, 1), (chi, 2)])).rank == 2
    rho2 = symplectic_datum("rho2", places, _ps_shapes(places), [chi])
    assert component_group(AParameter.of([(rho, 1), (rho2, 1)])).rank == 2
    assert component_group(AParameter.of([(chi, 2), (m1, 2)])).rank == 2


def _sk_with_roots(global_root, twisted):
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        FrozenMap({
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        }),
    )
    from mp4spectrum.parameters import RhoIrreducibleSymplectic, RhoRealDiscrete

    rho = CuspidalDatum(
        name="rho",
        gl_rank=2,
        duality="symplectic",
        global_root=global_root,
        local=FrozenMap({
            "v1": RhoIrreducibleSymplectic("sc", global_root, FrozenMap({"u": twisted, "p": 1, "up": 1})),
            "v2": RhoRealDiscrete(2),
            "v3": RhoRealDiscrete(2),
        }),
        twisted_roots=FrozenMap({"t": twisted}),
    )
    return AParameter.of([(rho, 1), (t, 2)])


@pytest.mark.parametrize("root,twisted", list(itertools.product((1, -1), repeat=2)))
def test_epsilon_tilde_saito_kurokawa(root, twisted):
    phi = _sk_with_roots(root, twisted)
    eps = epsilon_tilde(phi)
    assert eps.values == (root * twisted, twisted)
    # the displayed identity: the two values multiply to eps(1/2, rho)
    assert eps.values[0] * eps.values[1] == root


def test_epsilon_tilde_sk_example_from_tables():
    # eps(1/2, rho) = -1 and eps(1/2, rho x chi) = +1 gives (a1, a2) -> (-1, +1)
    phi = _sk_with_roots(-1, 1)
    assert epsilon_tilde(phi).values == (-1, 1)


def test_epsilon_tilde_trivial_families(rng):
    for ptype in ("howe-ps", "soudry", "principal"):
        for _ in range(5):
            places, elements, phi = random_scenario_parameter(rng, ptype)
            assert epsilon_tilde(phi).is_trivial


def test_epsilon_tilde_tempered_uses_root_numbers(rng):
    places, elements, phi = random_scenario_parameter(rng, "tempered")
    eps = epsilon_tilde(phi)
    roots = tuple(datum.global_root for datum, _ in phi.summands)
    assert eps.values == roots


def test_epsilon_tilde_missing_twist_data():
    places = _places()
    chi = trivial_element(places)
    rho = symplectic_datum("rho", places, _ps_shapes(places), [])
    # chi = "1" is not among the declared twisted roots
    phi = AParameter.of([(rho, 1), (chi, 2)])
    with pytest.raises(MissingSignData):
        epsilon_tilde(phi)


def test_l_half_nonzero_forces_positive_root():
    places = _places()
    with pytest.raises(InvalidParameter):
        CuspidalDatum(
            name="rho",
            gl_rank=2,
            duality="symplectic",
            global_root=1,
            local=_ps_shapes(places),
            twisted_roots=FrozenMap({"t": -1}),
            l_half_nonzero=FrozenMap({"t": True}),
        )


@pytest.fixture
def validations(monkeypatch):
    """The parameters validated so far, one entry per validation."""
    import mp4spectrum.parameters as parameters

    seen = []
    original = parameters._validated_type

    def counted(phi):
        seen.append(phi)
        return original(phi)

    monkeypatch.setattr(parameters, "_validated_type", counted)
    return seen


def test_classify_validates_a_parameter_once(validations):
    places = _places()
    chi = trivial_element(places)
    rho = symplectic_datum("rho", places, _ps_shapes(places), [chi])
    phi = AParameter.of([(rho, 1), (chi, 2)])
    assert classify(phi) is ParamType.SAITO_KUROKAWA
    assert classify(phi) is ParamType.SAITO_KUROKAWA
    component_group(phi)
    epsilon_tilde(phi)
    assert validations == [phi]
    # the stored type is not a field: an unclassified copy is equal and reads the same
    fresh = AParameter.of([(rho, 1), (chi, 2)])
    assert fresh == phi and repr(fresh) == repr(phi)


def test_classify_stores_no_failure(validations):
    places = _places()
    phi = AParameter.of([(trivial_element(places), 2)])
    for _ in range(3):
        with pytest.raises(InvalidParameter):
            classify(phi)
    with pytest.raises(InvalidParameter):
        component_group(phi)
    assert validations == [phi] * 4


@pytest.mark.parametrize("fixture", ["sk_steinberg.json", "tempered.json", "soudry.json"])
def test_localize_validates_once_over_a_scenario(fixture, validations):
    import os

    from mp4spectrum.localization import localize
    from mp4spectrum.multiplicity import enumerate_constituents
    from mp4spectrum.scenario import load_scenario

    sc = load_scenario(os.path.join(os.path.dirname(__file__), "..", "fixtures", fixture))
    for place in sc.places:
        localize(sc.parameter, place)
    sc.validate()
    enumerate_constituents(sc.parameter, sc.places)
    assert validations == [sc.parameter]
