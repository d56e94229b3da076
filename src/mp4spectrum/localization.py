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
constituents its summand splits into.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .chargroups import ComponentGroup, LocalizationMap
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
    component_group,
)
from .record import Record

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
        prior = sc_signs.setdefault(shape.tag, (shape.eps, dict(shape.eps_twists)))
        if prior != (shape.eps, dict(shape.eps_twists)):
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
    sc_signs: tuple = ()  # ((tag, eps, ((label, sign), ...)), ...) for supercuspidal pieces


LocalShape = Union[ShPrincipal, ShSK, ShHPS, ShSoudryIrreducible, ShSoudryNonQuadratic, ShTempered]


class LocalParam(Record):
    place: Place
    ptype: ParamType
    shape: LocalShape


def _free(labels: tuple[str, ...], relations=()) -> ComponentGroup:
    return ComponentGroup(basis=labels, relations=tuple(relations))


def localize(phi: AParameter, place: Place) -> tuple[LocalParam, ComponentGroup, LocalizationMap]:
    """Local shape, local component group, and the canonical map at one place."""
    ptype = classify(phi)
    global_basis = component_group(phi).basis

    def result(shape, group, rows):
        lp = LocalParam(place=place, ptype=ptype, shape=shape)
        return lp, group, LocalizationMap(source_basis=global_basis, target=group, rows=tuple(rows))

    if ptype is ParamType.PRINCIPAL:
        elem = phi.summands[0][0]
        group = _free(("a1",))
        return result(ShPrincipal(elem.local(place)), group, [(1,)])

    if ptype is ParamType.SAITO_KUROKAWA:
        (rho, _), (elem, _) = phi.summands
        shape = rho.local[place.id]
        a = elem.local(place)
        if isinstance(shape, RhoPrincipalSeries):
            group = _free(("a1", "a2"), relations=[(1, 0)])
        else:
            group = _free(("a1", "a2"))
        return result(ShSK(rho.name, shape, a), group, [(1, 0), (0, 1)])

    if ptype is ParamType.HOWE_PS:
        (e1, _), (e2, _) = phi.summands
        a, b = e1.local(place), e2.local(place)
        if a == b:
            group = _free(("a1", "a2"), relations=[(1, 1)])
        else:
            group = _free(("a1", "a2"))
        return result(ShHPS(a, b), group, [(1, 0), (0, 1)])

    if ptype is ParamType.SOUDRY:
        rho = phi.summands[0][0]
        shape = rho.local[place.id]
        if isinstance(shape, (RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete)):
            group = _free(("a1",))
            return result(ShSoudryIrreducible(rho.name, shape), group, [(1,)])
        if isinstance(shape, RhoReducibleOrthogonal):
            group = _free(())
            return result(ShSoudryNonQuadratic(shape.chi), group, [()])
        assert isinstance(shape, RhoQuadraticPair)
        a = place.class_from_label(min(shape.a, shape.b))
        b = place.class_from_label(max(shape.a, shape.b))
        if a == b:
            group = _free(("a1", "a2"), relations=[(1, 1)])
        else:
            group = _free(("a1", "a2"))
        return result(ShHPS(a, b), group, [(1, 1)])

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
    labels = tuple(f"g{k}" for k in range(len(gens)))
    relations = []
    for j in range(len(gens)):
        for k in range(j + 1, len(gens)):
            if gens[j][0] == gens[k][0]:
                rel = [0] * len(gens)
                rel[j] = rel[k] = 1
                relations.append(tuple(rel))
    group = _free(labels, relations)
    rows = []
    for i in range(len(phi.summands)):
        rows.append(tuple(1 if gi == i else 0 for _, gi in gens))
    ordered_pieces = tuple(p for p, _ in gens) + tuple(sorted(tail, key=repr))
    packed_signs = tuple(
        (tag, eps, tuple(sorted(twists.items()))) for tag, (eps, twists) in sorted(sc_signs.items())
    )
    return result(ShTempered(ordered_pieces, packed_signs), group, rows)
