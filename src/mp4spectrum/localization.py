"""Localization of global parameters: local shapes, groups, and maps.

At each place the global parameter determines a local shape (driven by
the declared local form of every GL(2)/GL(4) datum), a local component
group presented by generators and relations, and the canonical F2-linear
map from the global component group.  The quotients follow the local
packet constructions:

  Saito-Kurokawa    (Z/2)^2, modulo the first factor when rho_v reducible
  Howe-PS           (Z/2)^2, modulo the diagonal when chi_{a,v} = chi_{b,v}
  Soudry            Z/2 -> the local group of the splitting of rho_v
                    (trivial, rank 1, or an HPS-shaped quotient)
  principal         Z/2, identity
  tempered          one generator per irreducible self-dual symplectic
                    constituent of the declared local decomposition, with
                    a diagonal relation for repeated constituents

Each global generator maps to the sum of the local generators of the
constituents its summand splits into.  Relations and images are masks
in the convention of ``chargroups``: local generator 0 is the most
significant bit.

A ``LocalParam`` is a place and a local shape; the shape classes name
the family, so the local parameter carries no separate family tag.  The
global parameter is classified (and validated) once per instance by
``parameters.classify``, however many places it is localized at.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .chargroups import ComponentGroup, LocalizationMap, to_mask
from .fields import Place, SquareClass
from .parameters import (
    AParameter,
    CuspidalDatum,
    ParamType,
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
    SymplecticShape,
    classify,
)
from .record import FrozenMap, Record, frozen_maps

# ---------------------------------------------------------------------------
# tempered constituents


class PieceSC(Record, order=True):
    """2-dim irreducible symplectic supercuspidal constituent."""

    tag: str


class PieceSt(Record, order=True):
    """Constituent chi_c x S_2 (Steinberg parameter)."""

    label: str


class PieceD(Record, order=True):
    """Real discrete-series constituent D_a, a in 1/2 + Z."""

    a: Fraction


class Piece4SC(Record, order=True):
    """4-dim irreducible symplectic supercuspidal constituent."""

    tag: str


class PiecePS(Record, order=True):
    """Principal-series constituent chi|.|^s + chi^{-1}|.|^{-s}; no generator."""

    tag: str
    s: Fraction
    parity: int


TemperedPiece = Union[PieceSC, PieceSt, PieceD, Piece4SC, PiecePS]


def contributes_generator(piece: TemperedPiece) -> bool:
    return not isinstance(piece, PiecePS)


def _shape_pieces(shape, sc_signs: dict) -> list[TemperedPiece]:
    # supercuspidal tags are global to the place: equal tags mean equal local
    # representations, which is what lets two summands collide locally
    if isinstance(shape, RhoIrreducibleSymplectic):
        if sc_signs.setdefault(shape.tag, shape) != shape:
            raise ValueError(f"conflicting sign data for supercuspidal tag {shape.tag!r}")
        return [PieceSC(shape.tag)]
    if isinstance(shape, RhoSteinberg):
        return [PieceSt(shape.label)]
    if isinstance(shape, RhoRealDiscrete):
        return [PieceD(Fraction(2 * shape.kappa - 1, 2))]
    if isinstance(shape, RhoPrincipalSeries):
        return [PiecePS(shape.chi, shape.s, shape.chi_parity)]
    if isinstance(shape, Rho4Irreducible):
        return [Piece4SC(shape.tag)]
    if isinstance(shape, Rho4Split):
        out: list[TemperedPiece] = []
        for part in shape.parts:
            out.extend(_shape_pieces(part, sc_signs))
        return out
    raise TypeError(f"not a symplectic local shape: {shape!r}")


def _piece_order_key(piece: TemperedPiece):
    # real discrete-series constituents sort by descending parameter so the
    # label conventions of the archimedean tables line up with the basis
    if isinstance(piece, PieceD):
        return (0, -piece.a)
    return (1, repr(piece))


# ---------------------------------------------------------------------------
# local parameter shapes


class ShPrincipal(Record):
    a: SquareClass


class ShSK(Record):
    rho_name: str
    rho: SymplecticShape
    a: SquareClass


class ShHPS(Record):
    """Local shape (chi_a x S_2) + (chi_b x S_2); covers the a = b degeneration."""

    a: SquareClass
    b: SquareClass


class ShSoudryIrreducible(Record):
    rho_name: str
    rho: Union[RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete]


class ShSoudryNonQuadratic(Record):
    """rho_v = chi + chi^{-1}, chi^2 != 1: trivial local group, one member."""

    chi: str


class ShTempered(Record):
    pieces: tuple  # ordered TemperedPiece entries (generators first)
    sc_signs: FrozenMap = FrozenMap()  # tag -> its RhoIrreducibleSymplectic, for supercuspidal pieces
    __post_init__ = frozen_maps("sc_signs")


LocalShape = Union[ShPrincipal, ShSK, ShHPS, ShSoudryIrreducible, ShSoudryNonQuadratic, ShTempered]


class LocalParam(Record):
    """A local parameter: its place and its local shape, which fixes the family."""

    place: Place
    shape: LocalShape


def local_group(shape: LocalShape) -> ComponentGroup:
    """The local component group a shape determines, per the table above."""
    if isinstance(shape, (ShPrincipal, ShSoudryIrreducible)):
        return ComponentGroup(("a1",))
    if isinstance(shape, ShSK):
        if isinstance(shape.rho, RhoPrincipalSeries):
            return ComponentGroup(("a1", "a2"), (0b10,))
        return ComponentGroup(("a1", "a2"))
    if isinstance(shape, ShHPS):
        if shape.a == shape.b:
            return ComponentGroup(("a1", "a2"), (0b11,))
        return ComponentGroup(("a1", "a2"))
    if isinstance(shape, ShSoudryNonQuadratic):
        return ComponentGroup(())
    if isinstance(shape, ShTempered):
        gens = [p for p in shape.pieces if contributes_generator(p)]
        n = len(gens)
        relations = tuple(
            (1 << (n - 1 - j)) | (1 << (n - 1 - k))
            for j in range(n)
            for k in range(j + 1, n)
            if gens[j] == gens[k]
        )
        return ComponentGroup(tuple(f"g{k}" for k in range(n)), relations)
    raise TypeError(f"not a local shape: {shape!r}")


def localize(phi: AParameter, place: Place) -> tuple[LocalParam, ComponentGroup, LocalizationMap]:
    """Local shape, local component group, and the canonical map at one place."""
    ptype = classify(phi)

    def result(shape, images):
        group = local_group(shape)
        lp = LocalParam(place, shape)
        return lp, group, LocalizationMap(target=group, images=tuple(images))

    if ptype is ParamType.PRINCIPAL:
        elem = phi.summands[0][0]
        return result(ShPrincipal(elem.local(place)), [0b1])

    if ptype is ParamType.SAITO_KUROKAWA:
        (rho, _), (elem, _) = phi.summands
        return result(ShSK(rho.name, rho.local[place.id], elem.local(place)), [0b10, 0b01])

    if ptype is ParamType.HOWE_PS:
        (e1, _), (e2, _) = phi.summands
        return result(ShHPS(e1.local(place), e2.local(place)), [0b10, 0b01])

    if ptype is ParamType.SOUDRY:
        rho = phi.summands[0][0]
        shape = rho.local[place.id]
        if isinstance(shape, (RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete)):
            return result(ShSoudryIrreducible(rho.name, shape), [0b1])
        if isinstance(shape, RhoReducibleOrthogonal):
            return result(ShSoudryNonQuadratic(shape.chi), [0])
        assert isinstance(shape, RhoQuadraticPair)
        a = place.class_from_label(min(shape.a, shape.b))
        b = place.class_from_label(max(shape.a, shape.b))
        return result(ShHPS(a, b), [0b11])

    # tempered: generators come from the declared local decomposition
    pieces_by_summand: list[list[TemperedPiece]] = []
    sc_signs: dict = {}
    for datum, _ in phi.summands:
        assert isinstance(datum, CuspidalDatum)
        pieces_by_summand.append(_shape_pieces(datum.local[place.id], sc_signs))
    gens: list[tuple[TemperedPiece, int]] = []  # (piece, summand index)
    tail: list[TemperedPiece] = []
    for i, pieces in enumerate(pieces_by_summand):
        for piece in pieces:
            if contributes_generator(piece):
                gens.append((piece, i))
            else:
                tail.append(piece)
    gens.sort(key=lambda t: (_piece_order_key(t[0]), t[1]))
    images = [to_mask(gi == i for _, gi in gens) for i in range(len(phi.summands))]
    ordered_pieces = tuple(p for p, _ in gens) + tuple(sorted(tail, key=repr))
    return result(ShTempered(ordered_pieces, FrozenMap(sc_signs)), images)
