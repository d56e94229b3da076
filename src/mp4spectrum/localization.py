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

Every local group is a module constant and every map a shared entry of
one bounded table, none keyed by input values: a tempered parameter of
Mp(4) has at most two symplectic generators, so its group is one of four
and its maps are few.  A group hands out one set of characters
(``chargroups``) and a map one set of residues, so the characters, signs,
labels and residues are constants that every place, packet, pullback and
label reads.

A ``LocalParam`` is a place and a local shape; the shape classes name
the family, so the local parameter carries no separate family tag.
``local_shape`` is the one construction of a shape and its generator
images; ``localize`` adds the group and the map, which a caller that
reads only the shape (residual's designated members) does without.  The
global parameter is classified (and validated) once per instance by
``parameters.classify``, however many places it is localized at.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Union

from .chargroups import ComponentGroup, LocalizationMap, to_mask
from .descriptors import half_odd
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


class PieceSC(Record):
    """2-dim irreducible symplectic supercuspidal constituent."""

    tag: str


class PieceSt(Record):
    """Constituent chi_c x S_2 (Steinberg parameter)."""

    label: str


class PieceD(Record):
    """Real discrete-series constituent D_a, a in 1/2 + Z."""

    a: Fraction


class Piece4SC(Record):
    """4-dim irreducible symplectic supercuspidal constituent."""

    tag: str


class PiecePS(Record):
    """Principal-series constituent chi|.|^s + chi^{-1}|.|^{-s}; no generator."""

    tag: str
    s: Fraction
    parity: int


TemperedPiece = Union[PieceSC, PieceSt, PieceD, Piece4SC, PiecePS]


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
        return [PieceD(half_odd(shape.kappa))]
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

    @cached_property
    def form(self) -> tuple:
        """(generators, kind, order, key): what local_group and the packet rule read, worked out once per shape.

        The generators are the pieces but the principal series, in basis
        order.  kind is "DxD" for two real discrete series, "ds4" for one
        4-dim or two 2-dim supercuspidal or Steinberg pieces (they name an
        Mp(4) discrete-series member), and None otherwise; order lists the
        generators' indices in repr order, and key is the pieces' reprs.
        """
        return _tempered_form(self.pieces, tuple(map(repr, self.pieces)))


def _tempered_form(pieces: tuple, key: tuple) -> tuple:
    """ShTempered.form of the pieces whose reprs are ``key``."""
    gens = tuple(p for p in pieces if not isinstance(p, PiecePS))
    types = {type(p) for p in pieces}
    kind = "DxD" if len(gens) == 2 and types == {PieceD} else None
    if len(gens) == 1 and types == {Piece4SC} or len(gens) == 2 and types <= {PieceSC, PieceSt}:
        kind = "ds4"
    return gens, kind, sorted(range(len(gens)), key=key.__getitem__), key


LocalShape = Union[ShPrincipal, ShSK, ShHPS, ShSoudryIrreducible, ShSoudryNonQuadratic, ShTempered]


class LocalParam(Record):
    """A local parameter: its place and its local shape, which fixes the family."""

    place: Place
    shape: LocalShape


# every local group and map is a fixed value, built once and shared
_TRIVIAL = ComponentGroup(())
_RANK1 = ComponentGroup(("a1",))
_FREE2 = ComponentGroup(("a1", "a2"))
_FIRST2 = ComponentGroup(("a1", "a2"), (0b10,))  # modulo the first factor
_DIAGONAL2 = ComponentGroup(("a1", "a2"), (0b11,))  # modulo the diagonal
# tempered, by the number of generators (one per symplectic piece, at most two); two equal ones modulo the diagonal
_TEMPERED = (_TRIVIAL, ComponentGroup(("g0",)), ComponentGroup(("g0", "g1")))
_REPEATED = ComponentGroup(("g0", "g1"), (0b11,))
# (id of one of the groups above, images) -> the map; the at most ten tempered ones are added on first use
_MAPS = {
    (id(group), images): LocalizationMap(group, images)
    for group, images in (
        (_RANK1, (0b1,)),  # principal, Soudry irreducible
        (_FIRST2, (0b10, 0b01)),  # SK, rho_v reducible
        (_FREE2, (0b10, 0b01)),  # SK, HPS
        (_DIAGONAL2, (0b10, 0b01)),  # HPS, chi_{a,v} = chi_{b,v}
        (_TRIVIAL, (0,)),  # Soudry, chi^2 != 1
        (_FREE2, (0b11,)),  # Soudry, split into two quadratic characters
        (_DIAGONAL2, (0b11,)),  # or into one twice
    )
}


def local_group(shape: LocalShape) -> ComponentGroup:
    """The local component group a shape determines, per the table above: one of the shared constants."""
    if isinstance(shape, (ShPrincipal, ShSoudryIrreducible)):
        return _RANK1
    if isinstance(shape, ShSK):
        return _FIRST2 if isinstance(shape.rho, RhoPrincipalSeries) else _FREE2
    if isinstance(shape, ShHPS):
        return _DIAGONAL2 if shape.a == shape.b else _FREE2
    if isinstance(shape, ShSoudryNonQuadratic):
        return _TRIVIAL
    if isinstance(shape, ShTempered):
        gens = shape.form[0]
        return _REPEATED if len(gens) == 2 and gens[0] == gens[1] else _TEMPERED[len(gens)]
    raise TypeError(f"not a local shape: {shape!r}")


def local_shape(phi: AParameter, place: Place) -> tuple[LocalShape, tuple]:
    """phi's local shape at one place and the images of its global generators: the one construction of a shape."""
    ptype = classify(phi)
    if ptype is ParamType.PRINCIPAL:
        shape, images = ShPrincipal(phi.summands[0][0].local(place)), (0b1,)
    elif ptype is ParamType.SAITO_KUROKAWA:
        (rho, _), (elem, _) = phi.summands
        shape, images = ShSK(rho.name, rho.local[place.id], elem.local(place)), (0b10, 0b01)
    elif ptype is ParamType.HOWE_PS:
        (e1, _), (e2, _) = phi.summands
        shape, images = ShHPS(e1.local(place), e2.local(place)), (0b10, 0b01)
    elif ptype is ParamType.SOUDRY:
        rho = phi.summands[0][0]
        local = rho.local[place.id]
        if isinstance(local, (RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete)):
            shape, images = ShSoudryIrreducible(rho.name, local), (0b1,)
        elif isinstance(local, RhoReducibleOrthogonal):
            shape, images = ShSoudryNonQuadratic(local.chi), (0,)
        else:
            assert isinstance(local, RhoQuadraticPair)
            a, b = sorted((local.a, local.b))
            shape, images = ShHPS(place.class_from_label(a), place.class_from_label(b)), (0b11,)
    else:
        # tempered: generators come from the declared local decomposition.  One sort, each piece repr'd once:
        # real discrete series first, by descending parameter so the labels of the archimedean tables line up
        # with the basis, then the other generators by repr, then the principal series by repr; ties by summand
        keyed = []  # (rank, summand index, repr, piece)
        sc_signs: dict = {}
        for i, (datum, _) in enumerate(phi.summands):
            assert isinstance(datum, CuspidalDatum)
            for piece in _shape_pieces(datum.local[place.id], sc_signs):
                shown = repr(piece)
                rank = (0, -piece.a) if isinstance(piece, PieceD) else (1 + isinstance(piece, PiecePS), shown)
                keyed.append((rank, i, shown, piece))
        keyed.sort(key=lambda k: k[:2])
        owners = [i for rank, i, _, _ in keyed if rank[0] < 2]  # the summand of each generator, in basis order
        images = tuple(to_mask(owner == i for owner in owners) for i in range(len(phi.summands)))
        shape = ShTempered(tuple(k[3] for k in keyed), FrozenMap(sc_signs))
        vars(shape)["form"] = _tempered_form(shape.pieces, tuple(k[2] for k in keyed))  # fills the cached property
    return shape, images


def localize(phi: AParameter, place: Place) -> tuple[LocalParam, ComponentGroup, LocalizationMap]:
    """Local parameter, local component group, and the canonical map at one place; the group and map are shared."""
    shape, images = local_shape(phi, place)
    group = local_group(shape)
    key = id(group), images
    return LocalParam(place, shape), group, _MAPS.get(key) or _MAPS.setdefault(key, LocalizationMap(group, images))
