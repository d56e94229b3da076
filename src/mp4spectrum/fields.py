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

import reprlib
from functools import reduce
from operator import xor
from typing import Iterable, Mapping, Sequence

from .chargroups import to_mask
from .record import FrozenMap, Record, frozen_maps

Sign = int  # +1 or -1

# an error echoes an input value as its repr cut by reprlib (loaded by collections already) to one level, six
# list or four object items and 30 characters a string, never built whole: a few hundred bytes at most, an
# object's keys in sorted order; scenario's schema errors and the messages they pass on echo through it
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_shown = _ECHO.repr

KINDS = (
    "nonarch-odd-1mod4",
    "nonarch-odd-3mod4",
    "nonarch-dyadic",
    "real",
    "complex",
)

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

# read off the tables: each kind's label -> bits, and its rank, the length of the bit vectors
_BITS = {kind: {label: bits for bits, label in labels.items()} for kind, labels in _LABELS.items()}
_RANK = {kind: len(next(iter(labels))) for kind, labels in _LABELS.items()}
# the bits of the class of -1: "1", "u", "-1", "-1" and "1"
_MINUS_ONE = dict(zip(KINDS, ((0, 0), (1, 0), (1, 0, 0), (1,), ())))

# the Hilbert symbol is (a, b)_v = (-1)^(a G b) on the bit vectors above, G a
# symmetric Gram matrix over F2 per kind, given by one row mask per basis bit
# (bit 0 the most significant, as in chargroups); the dyadic one is the
# classical Q_2 formula with eps(u) = s, omega(u) = f for u = (-1)^s 5^f
_GRAM = {
    "nonarch-odd-1mod4": (0b01, 0b10),  # u.p + p.u
    "nonarch-odd-3mod4": (0b01, 0b11),  # and p.p: -1 = u is not a square
    "nonarch-dyadic": (0b100, 0b001, 0b010),  # s.s + f.t + t.f
    "real": (0b1,),
    "complex": (),
}

# kind -> class bits -> (the class's mask, its image under G: the sum of the rows of its bits)
_PAIRING = {
    kind: {bits: (to_mask(bits), reduce(xor, (row for row, b in zip(rows, bits) if b), 0)) for bits in _LABELS[kind]}
    for kind, rows in _GRAM.items()
}


class PlaceMismatch(ValueError):
    """Square classes from different places were combined."""


class Place(Record):
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
        bits = _BITS[self.kind].get(label)
        if bits is None:
            raise ValueError(f"no square class {_shown(label)} at {self.kind} place {_shown(self.id)}")
        return SquareClass(self, bits)

    def minus_one(self) -> "SquareClass":
        """The class of -1, determined by the kind."""
        return SquareClass(self, _MINUS_ONE[self.kind])

    def trivial_class(self) -> "SquareClass":
        return SquareClass(self, (0,) * self.rank)


class SquareClass(Record):
    place: Place
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.bits, tuple) or self.bits not in _LABELS[self.place.kind]:
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


def _symbol(place: Place, a: SquareClass, b_place: Place, b_bits: tuple[int, ...]) -> Sign:
    """(a, b)_v for the class a and the class b at b_place with bits b_bits, both at place."""
    if a.place != place or b_place != place:
        raise PlaceMismatch(f"classes not at place {place.id}")
    pairing = _PAIRING[place.kind]
    return -1 if (pairing[a.bits][1] & pairing[b_bits][0]).bit_count() & 1 else 1


def hilbert(place: Place, a: SquareClass, b: SquareClass) -> Sign:
    """Quadratic Hilbert symbol (a, b)_v on square classes."""
    return _symbol(place, a, b.place, b.bits)


def chi_minus_one(place: Place, a: SquareClass) -> Sign:
    """chi_a(-1) = (a, -1)_v, with the -1 row read from the tables, not built as a class."""
    return _symbol(place, a, place, _MINUS_ONE[place.kind])


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

    Each element's classes at all places are read once, as one mask with
    its image under the Gram tables of the places, when the first row
    reaches it; a pair's global pairing is then the parity of one AND.
    """
    elts = list(elements)
    n = len(elts)
    masks, images = [], []
    for i, a in enumerate(elts):
        for j in range(i, n):
            if not i:
                mask, image = _global_masks(places, elts[j])
                masks.append(mask)
                images.append(image)
            if (images[i] & masks[j]).bit_count() & 1:
                return ReciprocityReport(False, i * n + j + 1, (a.name, elts[j].name, -1))
    return ReciprocityReport(True, n * n, None)


def _global_masks(places: Sequence[Place], a: GlobalElement) -> tuple[int, int]:
    """a's classes at every place as one mask, and its image: (a, b) = parity of image(a) & mask(b)."""
    mask = image = 0
    for p in places:
        c = a.local(p)
        if c.place != p:
            raise PlaceMismatch(f"classes not at place {p.id}")
        m, i = _PAIRING[p.kind][c.bits]
        mask, image = mask << p.rank | m, image << p.rank | i
    return mask, image
