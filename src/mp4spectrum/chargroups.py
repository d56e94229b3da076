"""Finite elementary abelian 2-groups, their characters, and F2 linear algebra.

An F2 vector over a basis of width n is an int mask in which basis 0 is
bit n-1, the most significant bit (``to_mask``/``from_mask`` convert to
and from the 0/1 sequence).  Component groups are presented as
F2^basis / span(relations), the relations being masks.  A character is
the mask of the basis elements on which it is -1, and it is trivial on
every relation; ascending masks are then the canonical character order
(lexicographic on basis values, +1 before -1), which keeps reports and
atlases diff-stable.

Characters are values shared per group object: a group builds its
characters on the first ``characters()`` call and hands out the same
objects from then on (``at_mask`` and ``character`` included), and a
character computes its signs and its printed label once.  A localization
map likewise works out the pullback of each of its target's characters
once (``residues``).  Every local group and map of ``localization`` is a
module constant, tempered ones included, so their characters and
residues are constants too.  Nothing is keyed by input values.

``rref`` also bounds the multiplicity module's listing: eps~ reduced
against the span of the local residues counts the multiplicity-one tuples
before any is listed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .record import Record

Sign = int


def to_mask(bits: Iterable[int]) -> int:
    """The mask of a 0/1 sequence, its first entry the most significant bit."""
    mask = 0
    for b in bits:
        mask = (mask << 1) | b
    return mask


def from_mask(mask: int, width: int) -> tuple[int, ...]:
    """The 0/1 sequence of a mask over a basis of the given width."""
    return tuple((mask >> j) & 1 for j in range(width - 1, -1, -1))


def rref(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form over F2; returns the nonzero rows, leading bit descending."""
    pivots: list[int] = []
    for row in rows:
        for prow in pivots:
            if row & (1 << (prow.bit_length() - 1)):
                row ^= prow
        if not row:
            continue
        lead = 1 << (row.bit_length() - 1)
        pivots = [p ^ row if p & lead else p for p in pivots]
        pivots.append(row)
    return sorted(pivots, reverse=True)


def solve_affine(rows: Sequence[int], rhs: int, width: int) -> tuple[int, list[int]] | None:
    """Solve M x = b over F2, x and the rows of M being masks of the given width.

    b is a mask over the rows, row 0 the most significant bit.  Returns
    (particular solution, kernel basis) or None when inconsistent.
    """
    aug = rref((r << 1) | v for r, v in zip(rows, from_mask(rhs, len(rows))))
    if aug and aug[-1] == 1:
        return None  # 0 = 1
    x = pivot_bits = 0
    pivots = []  # (pivot bit in x, row without the right-hand side)
    for row in aug:
        p = 1 << (row.bit_length() - 2)
        pivot_bits |= p
        if row & 1:
            x |= p
        pivots.append((p, row >> 1))
    kernel = []
    for j in range(width - 1, -1, -1):
        free = 1 << j
        if not free & pivot_bits:
            kernel.append(free | sum(p for p, prow in pivots if prow & free))
    return x, kernel


def sign_str(s: Sign) -> str:
    return "+" if s == 1 else "-"


def sign_label(values) -> str:
    """A character label written as its signs, e.g. "(+,-)"."""
    return "(" + ",".join(map(sign_str, values)) + ")"


class ComponentGroup(Record):
    """F2^basis modulo the span of the relation masks."""

    basis: tuple[str, ...]
    relations: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.basis) - len(rref(self.relations))

    def order(self) -> int:
        return 1 << self.rank

    @cached_property
    def _by_mask(self) -> dict:
        """Mask -> character, for the characters trivial on the relations, in ascending mask order."""
        relations = self.relations
        return {
            m: F2Character(self, m)
            for m in range(1 << len(self.basis))
            if not any((m & r).bit_count() & 1 for r in relations)
        }

    def characters(self) -> list["F2Character"]:
        """All characters trivial on the relations, in canonical (ascending mask) order.

        The trivial character always comes first.  Every call returns the
        same character objects.
        """
        return list(self._by_mask.values())

    def character(self, values: Sequence[Sign]) -> "F2Character":
        """The character with the given sign on each basis element."""
        if len(values) != len(self.basis):
            raise ValueError("character length does not match basis")
        return self.at_mask(to_mask(0 if v == 1 else 1 for v in values))

    def at_mask(self, bits: int) -> "F2Character":
        """The character of the given mask, refused unless it is one of characters()."""
        ch = self._by_mask.get(bits)
        if ch is not None:
            return ch
        width = len(self.basis)
        if not 0 <= bits < 1 << width:
            raise ValueError(f"mask {bits} is not a character of a group with {width} generators")
        r = next(r for r in self.relations if (bits & r).bit_count() & 1)
        raise ValueError(f"character {F2Character(self, bits).values} violates relation {r:0{width}b}")

    def trivial_character(self) -> "F2Character":
        return self._by_mask[0]


class F2Character(Record):
    group: ComponentGroup
    bits: int  # mask of the basis elements where the character is -1

    @cached_property
    def values(self) -> tuple[Sign, ...]:
        """Signs aligned with group.basis."""
        return tuple(1 - 2 * b for b in from_mask(self.bits, len(self.group.basis)))

    @cached_property
    def sign_label(self) -> str:
        """The signs as enumerate and packet print them, e.g. "(+,-)"."""
        return sign_label(self.values)

    def on(self, vector: int) -> Sign:
        """Value on a group element given as a mask over the basis."""
        return -1 if (self.bits & vector).bit_count() & 1 else 1

    @property
    def is_trivial(self) -> bool:
        return not self.bits

    def __mul__(self, other: "F2Character") -> "F2Character":
        if other.group != self.group:
            raise ValueError("characters of different groups")
        return F2Character(self.group, self.bits ^ other.bits)


class LocalizationMap(Record):
    """F2-linear map from a free global component group to a local one.

    images[i] is the image of the i-th global generator, a mask over the
    local basis.
    """

    target: ComponentGroup
    images: tuple[int, ...]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The images as 0/1 rows over the local basis."""
        return tuple(from_mask(m, len(self.target.basis)) for m in self.images)

    @cached_property
    def residues(self) -> tuple[int, ...]:
        """The pullback of each character of target.characters(), in mask order, worked out once per map."""
        return tuple(map(self.pullback, self.target.characters()))

    def pullback(self, eta: F2Character) -> int:
        """Mask of the global generators a_i with (eta o iota)(a_i) = -1."""
        if eta.group is not self.target and eta.group != self.target:
            raise ValueError("character does not live on the target group")
        return to_mask((eta.bits & m).bit_count() & 1 for m in self.images)
