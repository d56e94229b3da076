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
    SquareClass,
    chi_minus_one,
    hilbert,
    minus_one_element,
    trivial_element,
    validate_reciprocity,
)
from mp4spectrum.record import FrozenMap

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


def _hilbert_closed_form(place, a, b):
    """The Hilbert symbol by the closed formula of each kind, on the class bit vectors."""
    if place.kind == "complex":
        return 1
    if place.kind == "real":
        return -1 if (a.bits[0] and b.bits[0]) else 1
    if place.kind == "nonarch-dyadic":
        (s1, f1, t1), (s2, f2, t2) = a.bits, b.bits
        # classical Q_2 formula: eps(u) = s, omega(u) = f for u = (-1)^s 5^f
        return -1 if (s1 * s2 + t1 * f2 + t2 * f1) % 2 else 1
    # odd residue characteristic: a = u^i1 p^j1, b = u^i2 p^j2
    (i1, j1), (i2, j2) = a.bits, b.bits
    minus_one_nonsquare = 1 if place.kind == "nonarch-odd-3mod4" else 0
    return -1 if (minus_one_nonsquare * j1 * j2 + i1 * j2 + i2 * j1) % 2 else 1


@pytest.mark.parametrize("kind", KINDS)
def test_hilbert_table_matches_the_closed_formulas(kind):
    place = Place("v", kind)
    pairs = list(itertools.product(place.square_classes(), repeat=2))
    assert len(pairs) == 4 ** place.rank
    for a, b in pairs:
        assert hilbert(place, a, b) == _hilbert_closed_form(place, a, b), (a.label, b.label)


def test_reciprocity_reads_each_class_once_and_calls_no_hilbert(monkeypatch):
    import mp4spectrum.fields as fields

    monkeypatch.setattr(fields, "hilbert", lambda *args: pytest.fail("hilbert called"))
    places = make_places(["nonarch-odd-3mod4", "real", "nonarch-dyadic", "nonarch-odd-1mod4"])
    elems = [trivial_element(places), minus_one_element(places)]
    rng = random.Random(5)
    for k in range(4):
        elems.append(random_element(rng, places, elems, f"e{k}"))
    assert validate_reciprocity(places, elems) == ReciprocityReport(True, 36, None)


def test_reciprocity_refuses_a_missing_or_misplaced_class_when_reached():
    places = make_places(["real", "real"])
    other = Place("w", "real")
    missing = GlobalElement("m", FrozenMap({"v1": places[0].minus_one()}))
    misplaced = GlobalElement("x", FrozenMap({"v1": places[0].minus_one(), "v2": other.minus_one()}))
    with pytest.raises(KeyError, match="no class at place 'v2'"):
        validate_reciprocity(places, [trivial_element(places), missing])
    with pytest.raises(PlaceMismatch):
        validate_reciprocity(places, [trivial_element(places), misplaced])
    # a violation the first row meets before an unreadable element is reported, as the pairwise loop did
    one_real = make_places(["real", "nonarch-odd-1mod4"])
    late = GlobalElement("m", FrozenMap({"v1": one_real[0].minus_one()}))
    report = validate_reciprocity(one_real, [minus_one_element(one_real), late])
    assert report == ReciprocityReport(False, 1, ("-1", "-1", -1))


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


@pytest.mark.parametrize("kind", KINDS)
def test_square_class_refuses_a_bad_bit_vector(kind):
    place = Place("v", kind)
    rank = place.rank
    for bits in place.square_classes():
        assert SquareClass(place, bits.bits) == bits
    bad = [(0,) * (rank + 1), list((0,) * rank)]
    if rank:
        bad += [(0,) * (rank - 1), (2,) + (0,) * (rank - 1), (0,) * (rank - 1) + (-1,)]
    for bits in bad:
        # a list would pass as a tuple does and fail only when hashed
        with pytest.raises(ValueError, match=f"bad bit vector .* for {kind}"):
            SquareClass(place, bits)


def test_place_mismatch_rejected():
    p1, p2 = Place("v", "real"), Place("w", "real")
    with pytest.raises(PlaceMismatch):
        hilbert(p1, p1.minus_one(), p2.minus_one())
    with pytest.raises(PlaceMismatch):
        chi_minus_one(p1, p2.minus_one())


@pytest.mark.parametrize("kind", KINDS)
def test_chi_minus_one_builds_no_square_class(kind, monkeypatch):
    # chi_a(-1) reads the -1 row of the kind's tables; it agrees with the
    # Hilbert symbol against the class of -1 and constructs no SquareClass
    place = Place("v", kind)
    classes = place.square_classes()
    expected = [hilbert(place, a, place.minus_one()) for a in classes]
    built = []
    init = SquareClass.__init__
    monkeypatch.setattr(SquareClass, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert [chi_minus_one(place, a) for a in classes] == expected
    assert built == []


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
        FrozenMap({
            "v1": places[0].class_from_label("u"),
            "v2": places[1].class_from_label("-1"),
            "v3": places[2].class_from_label("-1"),
        }),
    )
    elems = [trivial_element(places), minus_one_element(places), t]
    assert validate_reciprocity(places, elems).ok
    flipped = GlobalElement(
        "t",
        FrozenMap({**t.classes, "v2": places[1].class_from_label("1")}),
    )
    report = validate_reciprocity(places, [trivial_element(places), minus_one_element(places), flipped])
    assert not report.ok
    a, b, prod = report.violation
    assert prod == -1
    assert "t" in (a, b)


def global_pairing(places, a, b):
    """The product over the places of the Hilbert symbols (a, b)_v."""
    prod = 1
    for p in places:
        prod *= hilbert(p, a.local(p), b.local(p))
    return prod


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
                elems.append(GlobalElement(f"x{k}", FrozenMap({p.id: rng.choice(p.square_classes()) for p in places})))
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
