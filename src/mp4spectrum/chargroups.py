"""Finite elementary abelian 2-groups, their characters, and F2 linear algebra.

Component groups are presented as F2^basis / span(relations).  A character
is a sign vector on the basis that is trivial on every relation; character
groups are enumerated in a canonical order (lexicographic on basis values,
+1 before -1) so that reports and atlases are diff-stable.

The small Gaussian-elimination helpers double as the engine for the
multiplicity module's affine parity solve, so they live here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .record import Record

Sign = int
Vec = tuple[int, ...]  # F2 row vector


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a & b for a, b in zip(x, y)) % 2


def rref(rows: Iterable[Sequence[int]], width: int) -> list[Vec]:
    """Reduced row echelon form over F2; returns the nonzero rows."""
    mat = [list(r) for r in rows]
    pivots: list[tuple[int, list[int]]] = []
    for row in mat:
        row = row[:]
        for col, prow in pivots:
            if row[col]:
                row = [(a ^ b) for a, b in zip(row, prow)]
        lead = next((j for j in range(width) if row[j]), None)
        if lead is None:
            continue
        for _, prow in pivots:
            if prow[lead]:
                prow[:] = [(a ^ b) for a, b in zip(prow, row)]
        pivots.append((lead, row))
    pivots.sort(key=lambda t: t[0])
    return [tuple(r) for _, r in pivots]


def solve_affine(rows: Sequence[Sequence[int]], rhs: Sequence[int], width: int) -> tuple[Vec, list[Vec]] | None:
    """Solve M x = b over F2.

    Returns (particular solution, kernel basis) or None when inconsistent.
    """
    aug = rref([list(r) + [v] for r, v in zip(rows, rhs)], width + 1)
    pivot_cols: list[int] = []
    for row in aug:
        lead = next(j for j in range(width + 1) if row[j])
        if lead == width:
            return None  # 0 = 1
        pivot_cols.append(lead)
    free_cols = [j for j in range(width) if j not in pivot_cols]
    x = [0] * width
    for row, col in zip(aug, pivot_cols):
        x[col] = row[width]
    kernel: list[Vec] = []
    for fc in free_cols:
        v = [0] * width
        v[fc] = 1
        for row, col in zip(aug, pivot_cols):
            if row[fc]:
                v[col] = 1
        kernel.append(tuple(v))
    return tuple(x), kernel


def span_iter(basis: Sequence[Vec], width: int) -> Iterable[Vec]:
    """All F2 combinations of the given vectors (2^len(basis) of them)."""
    for coeffs in itertools.product((0, 1), repeat=len(basis)):
        v = [0] * width
        for c, b in zip(coeffs, basis):
            if c:
                v = [(a ^ t) for a, t in zip(v, b)]
        yield tuple(v)


class ComponentGroup(Record):
    """F2^basis modulo the span of the relation vectors."""

    basis: tuple[str, ...]
    relations: tuple[Vec, ...] = ()

    def __post_init__(self) -> None:
        for r in self.relations:
            if len(r) != len(self.basis):
                raise ValueError("relation length does not match basis")

    @property
    def ambient_rank(self) -> int:
        return len(self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis) - len(rref(self.relations, len(self.basis)))

    def order(self) -> int:
        return 1 << self.rank

    def characters(self) -> list["F2Character"]:
        """All characters trivial on the relations, in canonical order.

        Sign vectors are listed lexicographically with +1 before -1, so the
        trivial character always comes first.
        """
        out = []
        for values in itertools.product((1, -1), repeat=len(self.basis)):
            bits = tuple(0 if v == 1 else 1 for v in values)
            if all(_dot(bits, r) == 0 for r in self.relations):
                out.append(F2Character(self, values))
        return out

    def trivial_character(self) -> "F2Character":
        return F2Character(self, (1,) * len(self.basis))


class F2Character(Record):
    group: ComponentGroup
    values: tuple[Sign, ...]  # aligned with group.basis

    def __post_init__(self) -> None:
        if len(self.values) != len(self.group.basis):
            raise ValueError("character length does not match basis")
        bits = self.bits
        for r in self.group.relations:
            if _dot(bits, r) != 0:
                raise ValueError(f"character {self.values} violates relation {r}")

    @property
    def bits(self) -> Vec:
        return tuple(0 if v == 1 else 1 for v in self.values)

    def on(self, vector: Sequence[int]) -> Sign:
        """Value on a group element given as an F2 vector over the basis."""
        return -1 if _dot(self.bits, vector) else 1

    def on_generator(self, name: str) -> Sign:
        return self.values[self.group.basis.index(name)]

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __mul__(self, other: "F2Character") -> "F2Character":
        if other.group != self.group:
            raise ValueError("characters of different groups")
        return F2Character(self.group, tuple(a * b for a, b in zip(self.values, other.values)))


class LocalizationMap(Record):
    """F2-linear map from a free global component group to a local one.

    Row i is the image of the i-th global generator, written over the
    local basis.
    """

    source_basis: tuple[str, ...]
    target: ComponentGroup
    rows: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.source_basis):
            raise ValueError("one row per global generator required")
        for r in self.rows:
            if len(r) != len(self.target.basis):
                raise ValueError("row length does not match local basis")

    def image(self, vector: Sequence[int]) -> Vec:
        out = [0] * len(self.target.basis)
        for coeff, row in zip(vector, self.rows):
            if coeff:
                out = [(a ^ b) for a, b in zip(out, row)]
        return tuple(out)

    def image_of_generator(self, i: int) -> Vec:
        return self.rows[i]

    def pullback(self, eta: F2Character) -> tuple[Sign, ...]:
        """Signs (eta o iota)(a_i) for each global generator a_i."""
        if eta.group != self.target:
            raise ValueError("character does not live on the target group")
        return tuple(eta.on(row) for row in self.rows)
