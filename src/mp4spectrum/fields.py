"""Symbolic local fields and their square-class arithmetic.

A place is modeled purely by its square-class 2-group F_v^x/(F_v^x)^2
together with the quadratic Hilbert pairing on it.  Five kinds are
supported:

  nonarch-odd-1mod4   residue characteristic odd, q = 1 mod 4, group (Z/2)^2
  nonarch-odd-3mod4   residue characteristic odd, q = 3 mod 4, group (Z/2)^2
  nonarch-dyadic      the built-in Q_2 model, group (Z/2)^3
  real                group Z/2
  complex             trivial group

Square classes carry canonical labels: "1","u","p","up" at odd places
(u = nonsquare unit, p = uniformizer), "1","-1" at real places, and the
signed-unit labels "1","5","-1","-5","2","10","-2","-10" at the dyadic
place (class = (-1)^s 5^f 2^t).  The split of odd places by q mod 4 is
forced by whether -1 is a square, which changes both the Hilbert table
and every chi_a(-1) the downstream sign formulas consume.

Global elements are finitely supported families of local square classes
over a closed-world place set; Hilbert reciprocity (product of all local
pairings = +1) is validated pairwise, never assumed.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .record import FrozenMap, Record, frozen_maps

Sign = int  # +1 or -1

KINDS = (
    "nonarch-odd-1mod4",
    "nonarch-odd-3mod4",
    "nonarch-dyadic",
    "real",
    "complex",
)

_RANK = {
    "nonarch-odd-1mod4": 2,
    "nonarch-odd-3mod4": 2,
    "nonarch-dyadic": 3,
    "real": 1,
    "complex": 0,
}

# bit vectors: odd = (u, p); dyadic = (s, f, t) for (-1)^s 5^f 2^t; real = (s,)
_ODD_LABELS = {(0, 0): "1", (1, 0): "u", (0, 1): "p", (1, 1): "up"}
_DYADIC_LABELS = {
    (0, 0, 0): "1",
    (0, 1, 0): "5",
    (1, 0, 0): "-1",
    (1, 1, 0): "-5",
    (0, 0, 1): "2",
    (0, 1, 1): "10",
    (1, 0, 1): "-2",
    (1, 1, 1): "-10",
}
_REAL_LABELS = {(0,): "1", (1,): "-1"}
_COMPLEX_LABELS = {(): "1"}

_LABELS = {
    "nonarch-odd-1mod4": _ODD_LABELS,
    "nonarch-odd-3mod4": _ODD_LABELS,
    "nonarch-dyadic": _DYADIC_LABELS,
    "real": _REAL_LABELS,
    "complex": _COMPLEX_LABELS,
}


class PlaceMismatch(ValueError):
    """Square classes from different places were combined."""


class Place(Record, order=True):
    id: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown place kind {self.kind!r}")

    @property
    def rank(self) -> int:
        return _RANK[self.kind]

    @property
    def is_nonarch(self) -> bool:
        return self.kind.startswith("nonarch")

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex"

    def square_classes(self) -> list["SquareClass"]:
        """All square classes, trivial class first, in label-table order."""
        return [SquareClass(self, bits) for bits in _LABELS[self.kind]]

    def class_from_label(self, label: str) -> "SquareClass":
        for bits, lab in _LABELS[self.kind].items():
            if lab == label:
                return SquareClass(self, bits)
        raise ValueError(f"no square class {label!r} at {self.kind} place {self.id!r}")

    def minus_one(self) -> "SquareClass":
        """The class of -1, determined by the kind."""
        label = {
            "nonarch-odd-1mod4": "1",
            "nonarch-odd-3mod4": "u",
            "nonarch-dyadic": "-1",
            "real": "-1",
            "complex": "1",
        }[self.kind]
        return self.class_from_label(label)

    def trivial_class(self) -> "SquareClass":
        return SquareClass(self, (0,) * self.rank)


class SquareClass(Record, order=True):
    place: Place
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.place.rank or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bad bit vector {self.bits} for {self.place.kind}")

    @property
    def label(self) -> str:
        return _LABELS[self.place.kind][self.bits]

    @property
    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if other.place != self.place:
            raise PlaceMismatch(f"{self.place.id} vs {other.place.id}")
        return SquareClass(self.place, tuple(x ^ y for x, y in zip(self.bits, other.bits)))


def hilbert(place: Place, a: SquareClass, b: SquareClass) -> Sign:
    """Quadratic Hilbert symbol (a, b)_v on square classes."""
    if a.place != place or b.place != place:
        raise PlaceMismatch(f"classes not at place {place.id}")
    kind = place.kind
    if kind == "complex":
        return 1
    if kind == "real":
        return -1 if (a.bits[0] and b.bits[0]) else 1
    if kind == "nonarch-dyadic":
        s1, f1, t1 = a.bits
        s2, f2, t2 = b.bits
        # classical Q_2 formula: eps(u) = s, omega(u) = f for u = (-1)^s 5^f
        e = (s1 * s2 + t1 * f2 + t2 * f1) % 2
        return -1 if e else 1
    # odd residue characteristic: a = u^{i1} p^{j1}, b = u^{i2} p^{j2}
    i1, j1 = a.bits
    i2, j2 = b.bits
    minus_one_nonsquare = 1 if kind == "nonarch-odd-3mod4" else 0
    e = (minus_one_nonsquare * j1 * j2 + i1 * j2 + i2 * j1) % 2
    return -1 if e else 1


def chi(a: SquareClass, b: SquareClass) -> Sign:
    """chi_a(b) = (a, b)_v."""
    return hilbert(a.place, a, b)


def chi_minus_one(place: Place, a: SquareClass) -> Sign:
    """chi_a(-1) = (a, -1)_v."""
    return hilbert(place, a, place.minus_one())


class GlobalElement(Record):
    """A square class at every place of a closed-world scenario."""

    name: str
    classes: Mapping[str, SquareClass]  # keyed by place id
    __post_init__ = frozen_maps("classes")

    def local(self, place: Place) -> SquareClass:
        try:
            return self.classes[place.id]
        except KeyError:
            raise KeyError(f"element {self.name!r} has no class at place {place.id!r}") from None

    def __mul__(self, other: "GlobalElement") -> "GlobalElement":
        if set(self.classes) != set(other.classes):
            raise PlaceMismatch("elements live over different place sets")
        return GlobalElement(
            name=f"{self.name}*{other.name}",
            classes=FrozenMap({pid: self.classes[pid] * other.classes[pid] for pid in self.classes}),
        )

    def is_trivial(self) -> bool:
        return all(c.is_trivial for c in self.classes.values())


def trivial_element(places: Sequence[Place]) -> GlobalElement:
    return GlobalElement("1", FrozenMap({p.id: p.trivial_class() for p in places}))


def minus_one_element(places: Sequence[Place]) -> GlobalElement:
    return GlobalElement("-1", FrozenMap({p.id: p.minus_one() for p in places}))


def global_pairing(places: Sequence[Place], a: GlobalElement, b: GlobalElement) -> Sign:
    prod = 1
    for p in places:
        prod *= hilbert(p, a.local(p), b.local(p))
    return prod


class ReciprocityReport(Record):
    ok: bool
    checked_pairs: int
    violation: tuple[str, str, Sign] | None = None


def validate_reciprocity(places: Sequence[Place], elements: Iterable[GlobalElement]) -> ReciprocityReport:
    """Check prod_v (a, b)_v = +1 for every ordered pair of elements.

    Returns a report naming the first violating pair, if any, in the order
    (a_0, a_0), (a_0, a_1), ...; ``checked_pairs`` counts the ordered pairs
    up to it.  The pairing is symmetric, so each unordered pair is computed
    once: a pair (a_i, a_j) with j < i was reached as (a_j, a_i) in an
    earlier row, and did not fail there.  The diagonal pairs (a, a) are
    checked too; by (x, -x) = 1 they are equivalent to the pairs against
    -1, but they are cheap and keep the contract literal.
    """
    elts = list(elements)
    n = len(elts)
    for i, a in enumerate(elts):
        for j in range(i, n):
            prod = global_pairing(places, a, elts[j])
            if prod != 1:
                return ReciprocityReport(False, i * n + j + 1, (a.name, elts[j].name, prod))
    return ReciprocityReport(True, n * n, None)
