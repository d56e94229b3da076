"""Hilbert pairings, square classes, and reciprocity."""

import itertools

import pytest
from hypothesis import given, strategies as st

from mp4spectrum.fields import (
    KINDS,
    GlobalElement,
    Place,
    PlaceMismatch,
    ReciprocityReport,
    chi_minus_one,
    global_pairing,
    hilbert,
    minus_one_element,
    trivial_element,
    validate_reciprocity,
)

from conftest import make_places, random_element, random_places
import random


@pytest.mark.parametrize("kind", KINDS)
def test_hilbert_symmetric_and_bilinear(kind):
    place = Place("v", kind)
    classes = place.square_classes()
    assert len(classes) == 2 ** place.rank
    for a, b in itertools.product(classes, repeat=2):
        assert hilbert(place, a, b) == hilbert(place, b, a)
    for a, b, c in itertools.product(classes, repeat=3):
        assert hilbert(place, a * b, c) == hilbert(place, a, c) * hilbert(place, b, c)


def test_real_definite_pair():
    place = Place("v", "real")
    m1 = place.class_from_label("-1")
    assert hilbert(place, m1, m1) == -1
    one = place.class_from_label("1")
    assert hilbert(place, one, m1) == 1


def test_complex_trivial():
    place = Place("v", "complex")
    (one,) = place.square_classes()
    assert hilbert(place, one, one) == 1
    assert chi_minus_one(place, one) == 1


def test_odd_3mod4_uniformizer_pair():
    # (p, p) = (-1, p) with -1 a nonsquare unit when q = 3 mod 4
    place = Place("v", "nonarch-odd-3mod4")
    p = place.class_from_label("p")
    assert hilbert(place, p, p) == -1
    u = place.class_from_label("u")
    assert hilbert(place, u, p) == -1
    assert hilbert(place, u, u) == 1


def test_odd_1mod4_tables():
    place = Place("v", "nonarch-odd-1mod4")
    p = place.class_from_label("p")
    u = place.class_from_label("u")
    assert hilbert(place, p, p) == 1
    assert hilbert(place, u, p) == -1
    # -1 is a square, so chi_u(-1) = +1
    assert chi_minus_one(place, u) == 1
    assert place.minus_one().label == "1"


def test_dyadic_model():
    place = Place("v", "nonarch-dyadic")
    cls = place.class_from_label
    assert hilbert(place, cls("-1"), cls("-1")) == -1
    assert hilbert(place, cls("2"), cls("-1")) == 1
    assert hilbert(place, cls("5"), cls("2")) == -1
    assert hilbert(place, cls("2"), cls("2")) == 1
    assert hilbert(place, cls("5"), cls("5")) == 1
    assert place.minus_one().label == "-1"
    assert (cls("2") * cls("-5")).label == "-10"


def test_chi_minus_one_per_kind():
    real = Place("v", "real")
    assert chi_minus_one(real, real.class_from_label("-1")) == -1
    odd3 = Place("w", "nonarch-odd-3mod4")
    # chi_a(-1) = -1 exactly on classes of odd valuation when q = 3 mod 4
    assert chi_minus_one(odd3, odd3.class_from_label("p")) == -1
    assert chi_minus_one(odd3, odd3.class_from_label("up")) == -1
    assert chi_minus_one(odd3, odd3.class_from_label("u")) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_chi_minus_one_multiplicative(kind):
    place = Place("v", kind)
    for a, b in itertools.product(place.square_classes(), repeat=2):
        assert chi_minus_one(place, a) * chi_minus_one(place, b) == chi_minus_one(place, a * b)


def test_place_mismatch_rejected():
    p1, p2 = Place("v", "real"), Place("w", "real")
    with pytest.raises(PlaceMismatch):
        hilbert(p1, p1.minus_one(), p2.minus_one())


def test_reciprocity_trivial_scenario():
    places = make_places(["nonarch-odd-1mod4", "nonarch-odd-3mod4"])
    report = validate_reciprocity(places, [trivial_element(places)])
    assert report.ok


def test_reciprocity_builtin_minus_one():
    # two real places: (-1, -1) products cancel
    places = make_places(["real", "real", "nonarch-odd-3mod4"])
    report = validate_reciprocity(places, [trivial_element(places), minus_one_element(places)])
    assert report.ok
    # one real place only: (-1, -1) = -1
    bad = make_places(["real", "nonarch-odd-3mod4"])
    report = validate_reciprocity(bad, [minus_one_element(bad)])
    assert not report.ok
    assert report.violation == ("-1", "-1", -1)


def test_reciprocity_detects_single_flip():
    places = make_places(["nonarch-odd-3mod4", "real", "real"])
    t = GlobalElement(
        "t",
        {
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        },
    )
    elems = [trivial_element(places), minus_one_element(places), t]
    assert validate_reciprocity(places, elems).ok
    flipped = GlobalElement(
        "t",
        {**t.classes, "v2": places[1].class_from_label("1")},
    )
    report = validate_reciprocity(places, [trivial_element(places), minus_one_element(places), flipped])
    assert not report.ok
    a, b, prod = report.violation
    assert prod == -1
    assert "t" in (a, b)


def _ordered_reciprocity(places, elements):
    """The reference: every ordered pair, in order, up to the first violation."""
    checked = 0
    for a in elements:
        for b in elements:
            checked += 1
            prod = global_pairing(places, a, b)
            if prod != 1:
                return ReciprocityReport(False, checked, (a.name, b.name, prod))
    return ReciprocityReport(True, checked, None)


def test_reciprocity_report_matches_the_ordered_loop():
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        places = random_places(rng, rng.randint(1, 5))
        elems = [trivial_element(places), minus_one_element(places)]
        for k in range(rng.randint(0, 6)):
            if rng.random() < 0.6:
                elems.append(random_element(rng, places, elems, f"e{k}"))
            else:  # any classes at all, so reciprocity may fail anywhere
                elems.append(GlobalElement(f"x{k}", {p.id: rng.choice(p.square_classes()) for p in places}))
        rng.shuffle(elems)
        report = validate_reciprocity(places, elems)
        assert report == _ordered_reciprocity(places, elems), seed
        outcomes.add(report.ok)
    assert outcomes == {True, False}


def _hilbert_conic_oracle(a: int, b: int, p: int, prec: int) -> int:
    """(a, b)_p by brute force: a x^2 + b y^2 = z^2 is isotropic over Z_p
    iff it has a solution mod p^prec with a unit coordinate (Hensel lifts
    such solutions; prec = 7 suffices at p = 2, prec = 3 at odd p for the
    class representatives used here)."""
    mod = p**prec
    squares: dict[int, list[int]] = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        ax2 = a * x * x
        for y in range(mod):
            v = (ax2 + b * y * y) % mod
            for z in squares.get(v, ()):
                if (x % p) or (y % p) or (z % p):
                    return 1
    return -1


@pytest.mark.parametrize(
    "p,kind,reps,prec",
    [
        (5, "nonarch-odd-1mod4", {"1": 1, "u": 2, "p": 5, "up": 10}, 3),
        (3, "nonarch-odd-3mod4", {"1": 1, "u": 2, "p": 3, "up": 6}, 3),
        (
            2,
            "nonarch-dyadic",
            {"1": 1, "-1": -1, "5": 5, "-5": -5, "2": 2, "-2": -2, "10": 10, "-10": -10},
            7,
        ),
    ],
    ids=["Q5", "Q3", "Q2"],
)
def test_hilbert_tables_match_conic_solvability(p, kind, reps, prec):
    place = Place("v", kind)
    for la, lb in itertools.product(reps, repeat=2):
        want = hilbert(place, place.class_from_label(la), place.class_from_label(lb))
        assert want == _hilbert_conic_oracle(reps[la], reps[lb], p, prec), (la, lb)
    m1 = place.minus_one()
    for la in reps:
        want = hilbert(place, place.class_from_label(la), m1)
        assert want == _hilbert_conic_oracle(reps[la], -1, p, prec), la


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
def test_product_of_valid_elements_stays_valid(seed, n):
    rng = random.Random(seed)
    kinds = [rng.choice(["nonarch-odd-1mod4", "nonarch-odd-3mod4", "real", "real"]) for _ in range(n)]
    if sum(1 for k in kinds if k == "real") % 2:
        kinds.append("real")
    places = make_places(kinds)
    elems = [trivial_element(places), minus_one_element(places)]
    a = random_element(rng, places, elems, "a")
    elems.append(a)
    b = random_element(rng, places, elems, "b")
    elems.append(b)
    assert validate_reciprocity(places, elems).ok
    elems.append(a * b)
    assert validate_reciprocity(places, elems).ok
