"""Shared builders: valid random scenarios, the bundled fixtures, and bounded scengen draws.

Random elements are sampled exactly: the reciprocity conditions against
the already-chosen elements are F2-linear in the new element's bits, so
we solve the system and draw uniformly from its solution space.  Random
cuspidal data declare local shapes first and then set the global root
numbers to the products the shapes force, so every generated scenario is
valid by construction.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from mp4spectrum.chargroups import from_mask, solve_affine, to_mask
from mp4spectrum.fields import (
    GlobalElement,
    Place,
    SquareClass,
    hilbert,
    minus_one_element,
    trivial_element,
)
from mp4spectrum.parameters import (
    AParameter,
    CuspidalDatum,
    Rho4Irreducible,
    Rho4Split,
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoQuadraticPair,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoReducibleOrthogonal,
    RhoSteinberg,
    local_eps,
    local_eps_twist,
)
from mp4spectrum.record import FrozenMap

from golden_calls import load_scengen

NONARCH_KINDS = ("nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-dyadic")
ALL_KINDS = NONARCH_KINDS + ("real", "complex")


def make_places(kinds) -> list[Place]:
    return [Place(f"v{i}", kind) for i, kind in enumerate(kinds, start=1)]


def random_places(rng: random.Random, n: int, allow_complex: bool = True) -> list[Place]:
    kinds = list(NONARCH_KINDS + ("real",))
    if allow_complex:
        kinds.append("complex")
    chosen = [rng.choice(kinds) for _ in range(n)]
    # the built-in -1 forces an even number of real + dyadic places
    parity = sum(1 for k in chosen if k in ("real", "nonarch-dyadic")) % 2
    if parity:
        for i, k in enumerate(chosen):
            if k in ("real", "nonarch-dyadic"):
                chosen[i] = "nonarch-odd-1mod4"
                break
        else:
            chosen[0] = "real"
    return make_places(chosen)


def _gram(place: Place):
    rank = place.rank
    basis = [SquareClass(place, tuple(1 if j == i else 0 for j in range(rank))) for i in range(rank)]
    return [
        [0 if hilbert(place, bi, bj) == 1 else 1 for bj in basis]
        for bi in basis
    ]


def random_element(rng: random.Random, places, existing, name: str) -> GlobalElement:
    """Uniform sample from the elements compatible with everything declared."""
    grams = {p.id: _gram(p) for p in places}
    offsets = {}
    width = 0
    for p in places:
        offsets[p.id] = width
        width += p.rank
    rows = []
    for y in existing:
        row = [0] * width
        for p in places:
            ybits = y.local(p).bits
            g = grams[p.id]
            for i in range(p.rank):
                row[offsets[p.id] + i] = sum(g[i][j] & ybits[j] for j in range(p.rank)) % 2
        rows.append(to_mask(row))
    solved = solve_affine(rows, 0, width)
    assert solved is not None  # x = 0 is always a solution
    x, kernel = solved
    for b in kernel:
        if rng.random() < 0.5:
            x ^= b
    x = from_mask(x, width)
    classes = {}
    for p in places:
        off = offsets[p.id]
        classes[p.id] = SquareClass(p, tuple(x[off : off + p.rank]))
    return GlobalElement(name, FrozenMap(classes))


def nontrivial_class_labels(place: Place):
    return [c.label for c in place.square_classes() if not c.is_trivial]


_tag_counter = itertools.count()


def _fresh_tag(prefix: str) -> str:
    # unique per draw: equal tags assert equal local representations, so the
    # generator never reuses one (deliberate collisions are tested directly)
    return f"{prefix}{next(_tag_counter)}"


def random_symplectic_shape(rng: random.Random, place: Place):
    if place.is_complex:
        return RhoPrincipalSeries("mu", Fraction(rng.choice((0, 1, 1)), 4), rng.choice((1, -1)))
    if place.is_real:
        if rng.random() < 0.7:
            return RhoRealDiscrete(rng.choice((1, 1, 2, 3)))
        return RhoPrincipalSeries("mu", Fraction(rng.choice((0, 1)), 4), rng.choice((1, -1)))
    roll = rng.random()
    labels = [c.label for c in place.square_classes()]
    twists = FrozenMap({lab: rng.choice((1, -1)) for lab in labels if lab != "1"})
    if roll < 0.4:
        return RhoIrreducibleSymplectic(_fresh_tag("sc"), rng.choice((1, -1)), twists)
    if roll < 0.8:
        return RhoSteinberg(rng.choice(labels), rng.choice((1, -1)), twists)
    return RhoPrincipalSeries("mu", Fraction(rng.choice((0, 1)), 4), rng.choice((1, -1)))


def symplectic_datum(name: str, places, shapes, elements) -> CuspidalDatum:
    """Assemble a GL(2) symplectic datum whose global signs match its shapes."""
    local = {p.id: shapes[p.id] for p in places}
    root = 1
    for p in places:
        root *= local_eps(local[p.id], p)
    twisted = {}
    for e in elements:
        prod = 1
        for p in places:
            prod *= local_eps_twist(local[p.id], e.local(p), p)
        twisted[e.name] = prod
    return CuspidalDatum(
        name=name,
        gl_rank=2,
        duality="symplectic",
        global_root=root,
        local=FrozenMap(local),
        twisted_roots=FrozenMap(twisted),
        l_half_nonzero=FrozenMap({e: False for e in twisted}),
    )


def random_orthogonal_shape(rng: random.Random, place: Place, cc_class: SquareClass):
    if place.is_complex:
        return RhoReducibleOrthogonal("mu") if rng.random() < 0.5 else RhoQuadraticPair("1", "1")
    if cc_class.is_trivial:
        if rng.random() < 0.5:
            return RhoReducibleOrthogonal("mu")
        a = rng.choice(place.square_classes())
        return RhoQuadraticPair(a.label, a.label)
    roll = rng.random()
    if place.is_real:
        if roll < 0.6:
            return RhoRealOrthogonalDiscrete(rng.choice((1, 2, 3)))
        return RhoQuadraticPair("1", "-1")
    if roll < 0.5:
        return RhoDihedralSupercuspidal(_fresh_tag("tau"))
    a = rng.choice(place.square_classes())
    return RhoQuadraticPair(a.label, (a * cc_class).label)


def soudry_datum(rng: random.Random, name: str, places, central: GlobalElement) -> CuspidalDatum:
    local = FrozenMap({p.id: random_orthogonal_shape(rng, p, central.local(p)) for p in places})
    return CuspidalDatum(
        name=name,
        gl_rank=2,
        duality="orthogonal",
        global_root=1,
        local=local,
        dihedral=True,
        central_char=central.name,
    )


def random_scenario_parameter(rng: random.Random, ptype: str):
    """(places, elements, parameter) for one of the five families."""
    n = rng.randrange(2, 6)
    places = random_places(rng, n)
    one = trivial_element(places)
    m1 = minus_one_element(places)
    elements = [one, m1]
    t = random_element(rng, places, elements, "t")
    elements.append(t)

    if ptype == "principal":
        chi = rng.choice(elements)
        return places, elements, AParameter.of([(chi, 4)])
    if ptype == "howe-ps":
        e1, e2 = rng.sample(elements, 2)
        return places, elements, AParameter.of([(e1, 2), (e2, 2)])
    if ptype == "saito-kurokawa":
        chi = rng.choice(elements)
        shapes = {p.id: random_symplectic_shape(rng, p) for p in places}
        rho = symplectic_datum("rho", places, shapes, elements)
        return places, elements, AParameter.of([(rho, 1), (chi, 2)])
    if ptype == "soudry":
        # a globally nontrivial central character is required, so the place
        # set cannot be entirely complex
        while all(p.is_complex for p in places):
            places = random_places(rng, n)
            one, m1 = trivial_element(places), minus_one_element(places)
            elements = [one, m1]
            t = random_element(rng, places, elements, "t")
            elements.append(t)
        central = t if not t.is_trivial() else m1
        while central.is_trivial():
            central = random_element(rng, places, elements, "cc")
        rho = soudry_datum(rng, "rho", places, central)
        return places, elements, AParameter.of([(rho, 2)])
    if ptype == "tempered":
        if rng.random() < 0.25:
            local = {}
            for p in places:
                if p.is_nonarch and rng.random() < 0.5:
                    local[p.id] = Rho4Irreducible(_fresh_tag("vr"), rng.choice((1, -1)))
                else:
                    local[p.id] = Rho4Split(
                        (random_symplectic_shape(rng, p), random_symplectic_shape(rng, p))
                    )
            root = 1
            for p in places:
                root *= local_eps(local[p.id], p)
            datum = CuspidalDatum(
                name="Pi4", gl_rank=4, duality="symplectic", global_root=root, local=FrozenMap(local)
            )
            return places, elements, AParameter.of([(datum, 1)])
        shapes1 = {p.id: random_symplectic_shape(rng, p) for p in places}
        shapes2 = {p.id: random_symplectic_shape(rng, p) for p in places}
        rho1 = symplectic_datum("rho1", places, shapes1, elements)
        rho2 = symplectic_datum("rho2", places, shapes2, elements)
        return places, elements, AParameter.of([(rho1, 1), (rho2, 1)])
    raise ValueError(ptype)


PTYPES = ("principal", "saito-kurokawa", "howe-ps", "soudry", "tempered")

# scengen's enumerate draws return None, never raising, when the tuple target is out of the family's reach
ENUMERATE_DRAW_CAP = 1_000


def enumerate_draw(rng: random.Random, family: str, places: int, m: int) -> dict:
    """A scengen document of ``family`` at ``places`` places aiming at 2^m tuples, from at most
    ENUMERATE_DRAW_CAP draws of ``rng``; a target no draw meets fails the test instead of drawing forever."""
    draw = load_scengen()._enumerate_draw
    for _ in range(ENUMERATE_DRAW_CAP):
        doc = draw(rng, family, places, m)
        if doc is not None:
            return doc
    pytest.fail(f"no {family} scenario at {places} places with m = {m} in {ENUMERATE_DRAW_CAP} draws")


@pytest.fixture
def rng():
    return random.Random(20260810)
