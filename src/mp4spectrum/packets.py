"""Local packet tables for Mp(4), with the appendix calculi behind them.

This module is the table engine: given a local shape it lists the packet
entries (character label, symbolic member, L-packet flag), applying the
nonvanishing rules at the exceptional shapes.  It also houses the local
Shimura correspondence table between Mp(W_2) and SO(V_2^+-), the
reducibility oracle for parabolically induced representations, and the
elementary Weil quotient forms.  The quaternionic sign bookkeeping
(eps, eps') and the rank-1/rank-2 theta nonvanishing criteria, which no
table reads, are test oracles (tests/theta_oracles.py).

All tables are compiled in; lookups are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chargroups import F2Character
from .descriptors import (
    HALF,
    MP4,
    Desc,
    GL2Seg,
    Mp2Member,
    MpDS4,
    MpGenNG,
    MpRealDS2,
    MpSt2,
    MpStPair,
    MpStTau,
    MpStTwist,
    NuChar,
    OExt,
    Opaque,
    QuadChar,
    RealD,
    RealLKT,
    SC2,
    SODS,
    Seg,
    SOGenNG,
    SOStPair,
    SOStTau,
    SOStTwist,
    St2,
    THREE_HALF,
    TagChar,
    ThetaLift,
    TwistNu,
    WeilEven,
    WeilOdd,
    ZERO,
    Zero,
    dsum,
    elementary_weil,
    half_odd,
    lq,
    render,
    seg,
    sign_label,
    sign_str,
)
from .fields import Place, Sign, SquareClass, chi_minus_one
from .ktypes import lowest_kprime_discrete
from .localization import (
    LocalParam,
    Piece4SC,
    PiecePS,
    PieceSC,
    PieceSt,
    ShHPS,
    ShPrincipal,
    ShSK,
    ShSoudryIrreducible,
    ShSoudryNonQuadratic,
    ShTempered,
    local_group,
)
from .parameters import (
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoSteinberg,
)
from .record import Record


class UnsupportedShape(ValueError):
    pass


class UnsupportedInduction(ValueError):
    pass


class RowNotFound(ValueError):
    pass


class PacketEntry(Record):
    label: F2Character
    member: Desc
    in_l_packet: bool

    @property
    def is_zero(self) -> bool:
        return isinstance(self.member, Zero)

    def rendered(self) -> dict:
        return {
            "label": self.label.sign_label,
            "member": render(self.member),
            "in_l_packet": self.in_l_packet,
            "zero": self.is_zero,
        }


# ---------------------------------------------------------------------------
# helper constructors


def _sorted_pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


def mp_st_pair(label: str, inner: Desc) -> Desc:
    """St~_psi(chi, pi), normalized via St~(chi, st~_mu) = St~(mu, st~_chi)."""
    if isinstance(inner, MpSt2):
        lo, hi = _sorted_pair(label, inner.label)
        return MpStPair(lo, MpSt2(hi))
    return MpStPair(label, inner)


def so_st_pair(space_eps: Sign, label: str, inner: Desc) -> Desc:
    """St^eps(chi, sigma), normalized via St^+(chi, st_mu) = St^+(mu, st_chi)."""
    if space_eps == 1 and isinstance(inner, St2):
        lo, hi = _sorted_pair(label, inner.label)
        return SOStPair(1, lo, St2(hi))
    return SOStPair(space_eps, label, inner)


def _tau_of_piece(piece) -> Desc:
    if isinstance(piece, PieceSt):
        return St2(piece.label)
    if isinstance(piece, PieceSC):
        return SC2(piece.tag)
    raise UnsupportedShape(f"no GL(2) datum behind {piece!r}")


def _square_integrable(ordered, gen_ng, ds) -> Desc:
    """The member named by (constituent, sign) pairs in canonical order, by the constituent's repr.

    A doubled constituent with its (necessarily diagonal) label is the
    generic or nongeneric summand ``gen_ng`` of the corresponding
    parabolic induction from tau; any other is the ``ds`` member.
    """
    if len(ordered) == 2 and ordered[0][0] == ordered[1][0]:
        if ordered[0][1] != ordered[1][1]:
            raise UnsupportedShape("mixed label on a doubled constituent indexes no member")
        return gen_ng(_tau_of_piece(ordered[0][0]), ordered[0][1] == 1)
    return ds(lparam=tuple(p for p, _ in ordered), label=tuple(s for _, s in ordered))


def _repr_order(pair) -> tuple:
    return repr(pair[0]), pair[1]


def mp_ds4(piece_sign_pairs) -> Desc:
    """Tempered Mp(4) member named by (constituent, sign) pairs."""
    return _square_integrable(sorted(piece_sign_pairs, key=_repr_order), MpGenNG, MpDS4)


def so_ds(piece_sign_pairs) -> Desc:
    """Tempered SO(5) member named by (constituent, sign) pairs."""
    return _square_integrable(sorted(piece_sign_pairs, key=_repr_order), SOGenNG, SODS)


def _real_ds_member(a: Fraction, b: Fraction, eps1: Sign, eps2: Sign) -> Desc:
    return RealLKT(lowest_kprime_discrete(a, b, eps1, eps2))


def _wald_member(rho, eps1: Sign) -> Desc:
    """Member of the rank-1 metaplectic packet of an irreducible symplectic rho_v."""
    if isinstance(rho, RhoIrreducibleSymplectic):
        return Mp2Member(rho.tag, eps1)
    if isinstance(rho, RhoSteinberg):
        return MpSt2(rho.label) if eps1 == 1 else WeilOdd(rho.label)
    if isinstance(rho, RhoRealDiscrete):
        lam = half_odd(rho.kappa)
        return MpRealDS2(lam if eps1 == 1 else -lam)
    raise UnsupportedShape(f"no rank-1 packet for {rho!r}")


# ---------------------------------------------------------------------------
# the packet tables


def _principal(place: Place, shape: ShPrincipal, ch: F2Character) -> PacketEntry:
    (eps,) = ch.values
    return PacketEntry(ch, elementary_weil(2, eps, shape.a.label), in_l_packet=(eps == 1))


def _sk(place: Place, shape: ShSK, ch: F2Character) -> PacketEntry:
    a, rho = shape.a, shape.rho
    eps1, eps2 = ch.values
    if isinstance(rho, RhoPrincipalSeries):
        assert eps1 == 1
        if eps2 == 1:
            member = lq(MP4, [seg(a.label, HALF), Seg(TagChar(rho.chi), rho.s)])
        else:
            member = lq(MP4, [Seg(TagChar(rho.chi), rho.s)], WeilOdd(a.label))
        return PacketEntry(ch, member, in_l_packet=(eps2 == 1))
    if eps2 == 1:
        return PacketEntry(ch, lq(MP4, [seg(a.label, HALF)], _wald_member(rho, eps1)), in_l_packet=True)
    if isinstance(rho, RhoRealDiscrete):
        ca = chi_minus_one(place, a)
        if rho.kappa > 1 or eps1 == ca:
            member = _real_ds_member(half_odd(rho.kappa), HALF, eps1, ca)
        else:
            member = ZERO
    elif isinstance(rho, RhoSteinberg) and place.class_from_label(rho.label) == a:
        if not a.is_trivial:
            member = ZERO if eps1 == 1 else mp_ds4([(PieceSt(a.label), -1), (PieceSt(a.label), -1)])
        else:
            member = mp_ds4([(PieceSt(a.label), 1), (PieceSt(a.label), 1)]) if eps1 == 1 else ZERO
    else:
        piece = PieceSC(rho.tag) if isinstance(rho, RhoIrreducibleSymplectic) else PieceSt(rho.label)
        member = mp_ds4([(piece, eps1), (PieceSt(a.label), -1)])
    return PacketEntry(ch, member, in_l_packet=False)


def _hps(place: Place, shape: ShHPS, ch: F2Character) -> PacketEntry:
    a, b = shape.a, shape.b
    eps1, eps2 = ch.values
    if a == b:
        if eps1 == 1:
            member = lq(MP4, [seg(a.label, HALF), seg(a.label, HALF)])
        elif place.is_complex:
            member = ZERO
        elif place.is_real:
            member = lq(MP4, [seg(a.label, HALF)], WeilOdd((a * place.minus_one()).label))
        else:
            member = lq(MP4, [seg(a.label, HALF)], MpSt2(a.label))
        return PacketEntry(ch, member, in_l_packet=(eps1 == 1))
    if (eps1, eps2) == (1, 1):
        member = lq(MP4, [seg(a.label, HALF), seg(b.label, HALF)])
    elif (eps1, eps2) == (1, -1):
        member = lq(MP4, [seg(a.label, HALF)], WeilOdd(b.label))
    elif (eps1, eps2) == (-1, 1):
        member = lq(MP4, [seg(b.label, HALF)], WeilOdd(a.label))
    elif place.is_real:
        member = ZERO
    else:
        member = mp_ds4([(PieceSt(a.label), -1), (PieceSt(b.label), -1)])
    return PacketEntry(ch, member, in_l_packet=((eps1, eps2) == (1, 1)))


def _soudry(place: Place, shape, ch: F2Character) -> PacketEntry:
    if isinstance(shape, ShSoudryNonQuadratic):
        member = lq(MP4, [Seg(TagChar(shape.chi), HALF), Seg(TagChar(shape.chi, True), HALF)])
        return PacketEntry(ch, member, in_l_packet=True)
    rho = shape.rho
    (eps,) = ch.values
    if isinstance(rho, RhoDihedralSupercuspidal):
        member = lq(MP4, [GL2Seg(SC2(rho.tag), HALF)]) if eps == 1 else mp_ds4([(("orthS2", rho.tag), -1)])
    else:
        assert isinstance(rho, RhoRealOrthogonalDiscrete)
        kappa = Fraction(rho.kappa)
        if eps == 1:
            member = lq(MP4, [GL2Seg(RealD(kappa), HALF)])
        else:
            member = dsum(
                _real_ds_member(kappa + HALF, kappa - HALF, 1, -1),
                _real_ds_member(kappa + HALF, kappa - HALF, -1, 1),
            )
    return PacketEntry(ch, member, in_l_packet=(eps == 1))


def _tempered(place: Place, shape: ShTempered, ch: F2Character) -> PacketEntry:
    gens, kind, order, key = shape.form
    if kind == "DxD" and place.is_real:
        # sorted descending by the localization order
        return PacketEntry(ch, _real_ds_member(gens[0].a, gens[1].a, *ch.values), in_l_packet=True)
    if kind == "ds4" and place.is_nonarch:
        member = _square_integrable([(gens[i], ch.values[i]) for i in order], MpGenNG, MpDS4)
        return PacketEntry(ch, member, in_l_packet=True)
    return PacketEntry(ch, Opaque("tempered-member", (key, ch.values)), in_l_packet=True)


# the packet rule of each local shape class: (place, shape, character) -> its entry
_RULES = {
    ShPrincipal: _principal,
    ShSK: _sk,
    ShHPS: _hps,
    ShSoudryIrreducible: _soudry,
    ShSoudryNonQuadratic: _soudry,
    ShTempered: _tempered,
}


def local_packet(lp: LocalParam) -> list[PacketEntry]:
    """The packet entries at a local parameter, one per admissible character, in mask order.

    Every entry's label is one of the characters of the shape's shared
    local group.  Each entry comes from the shape's rule for one
    character, the rule packet_entry applies to a single one.
    """
    # local_group rejects anything that is not a local shape
    chars = local_group(lp.shape).characters()
    rule = _RULES[type(lp.shape)]
    return [rule(lp.place, lp.shape, ch) for ch in chars]


def packet_entry(lp: LocalParam, label: int) -> PacketEntry:
    """The entry of local_packet(lp) at the character of mask ``label``, built alone."""
    ch = local_group(lp.shape).at_mask(label)
    return _RULES[type(lp.shape)](lp.place, lp.shape, ch)


def designated_l_packet_member(lp: LocalParam) -> Desc:
    """The member the tables attach to the L-parameter of a nontempered shape.

    Built directly from the Langlands data of the associated L-parameter,
    independently of the packet listing, so descriptor equality against the
    all-plus packet entry is a meaningful table invariant.
    """
    shape = lp.shape
    # the most frequent shapes first; each quadratic character is built once
    if isinstance(shape, ShHPS):
        return lq(MP4, [Seg(QuadChar(shape.a.label), HALF), Seg(QuadChar(shape.b.label), HALF)])
    if isinstance(shape, ShPrincipal):
        chi = QuadChar(shape.a.label)
        return lq(MP4, [Seg(chi, THREE_HALF), Seg(chi, HALF)])
    if isinstance(shape, ShSK):
        if isinstance(shape.rho, RhoPrincipalSeries):
            return lq(MP4, [Seg(QuadChar(shape.a.label), HALF), Seg(TagChar(shape.rho.chi), shape.rho.s)])
        return lq(MP4, [Seg(QuadChar(shape.a.label), HALF)], _wald_member(shape.rho, 1))
    if isinstance(shape, ShSoudryIrreducible):
        rho = shape.rho
        if isinstance(rho, RhoDihedralSupercuspidal):
            return lq(MP4, [GL2Seg(SC2(rho.tag), HALF)])
        return lq(MP4, [GL2Seg(RealD(Fraction(rho.kappa)), HALF)])
    if isinstance(shape, ShSoudryNonQuadratic):
        return lq(MP4, [Seg(TagChar(shape.chi), HALF), Seg(TagChar(shape.chi, True), HALF)])
    raise UnsupportedShape("tempered shapes have no single designated member")


def designated_key(lp: LocalParam, datum=None):
    """The labels and data designated_l_packet_member(lp) reads, never the place: equal keys, equal members."""
    # a datum given stands for an SK or irreducible Soudry shape's datum name and local shape, so none is hashed
    shape = lp.shape
    if isinstance(shape, ShPrincipal):
        return shape.a.label
    if isinstance(shape, ShSK):
        return (shape.a.label, shape.rho_name, shape.rho) if datum is None else (shape.a.label, datum)
    if isinstance(shape, ShSoudryIrreducible) and datum is not None:
        return datum
    # lq sorts an HPS pair's segments; the Soudry shapes hold no square class
    return _sorted_pair(shape.a.label, shape.b.label) if isinstance(shape, ShHPS) else shape


# ---------------------------------------------------------------------------
# the local Shimura correspondence table (nonarchimedean, all summands symplectic)


class SCEntry(Record):
    label: tuple
    mp: Desc
    so_space: Sign
    so: Desc

    def rendered(self) -> dict:
        return {
            "label": sign_label(self.label),
            "mp": render(self.mp),
            "so_space": f"V2{sign_str(self.so_space)}",
            "so": render(self.so),
        }


class SCRow(Record):
    name: str
    entries: tuple[SCEntry, ...]

    def mp_member(self, label: tuple) -> Desc:
        for e in self.entries:
            if e.label == label:
                return e.mp
        raise RowNotFound(f"label {label} not in row {self.name}")

    def to_so(self, label: tuple) -> tuple[Sign, Desc]:
        for e in self.entries:
            if e.label == label:
                return e.so_space, e.so
        raise RowNotFound(f"label {label} not in row {self.name}")

    def to_mp(self, so_desc: Desc) -> tuple[tuple, Desc]:
        for e in self.entries:
            if e.so == so_desc:
                return e.label, e.mp
        raise RowNotFound(f"descriptor {render(so_desc)} not in row {self.name}")


def _sc_row(name: str, quads) -> SCRow:
    entries = sorted(
        (SCEntry(label, mp, math.prod(label), so) for label, mp, so in quads),
        key=lambda e: tuple(0 if s == 1 else 1 for s in e.label),
    )
    return SCRow(name, tuple(entries))


def _double_row(name: str, tau: Desc) -> SCRow:
    """The row of a doubled constituent tau + tau: diagonal labels only."""
    return _sc_row(
        name,
        [((1, 1), MpGenNG(tau, True), SOGenNG(tau, True)), ((-1, -1), MpGenNG(tau, False), SOGenNG(tau, False))],
    )


def shimura_row(place: Place, shape: ShTempered) -> SCRow:
    """The correspondence row matching a tempered local shape.

    Raises RowNotFound when the shape is outside the tabulated rows
    (principal-series constituents, archimedean places, or missing sign data).
    """
    if not place.is_nonarch:
        raise RowNotFound("rows are tabulated at nonarchimedean places only")
    pieces = list(shape.pieces)
    if any(isinstance(p, PiecePS) for p in pieces):
        raise RowNotFound("principal-series constituents are outside the table")

    def chim1(label: str) -> Sign:
        return chi_minus_one(place, place.class_from_label(label))

    if len(pieces) == 1 and isinstance(pieces[0], Piece4SC):
        tag = pieces[0].tag
        return _sc_row(
            "4dim-irreducible",
            [
                ((e,), mp_ds4([(Piece4SC(tag), e)]), so_ds([(Piece4SC(tag), e)]))
                for e in (1, -1)
            ],
        )

    if len(pieces) == 2 and all(isinstance(p, PieceSC) for p in pieces):
        t1, t2 = pieces[0].tag, pieces[1].tag
        if t1 == t2:
            return _double_row("double-supercuspidal", SC2(t1))
        quads = []
        for e1 in (1, -1):
            for e2 in (1, -1):
                pair = [(PieceSC(t1), e1), (PieceSC(t2), e2)]
                quads.append(((e1, e2), mp_ds4(pair), so_ds(pair)))
        return _sc_row("pair-supercuspidal", quads)

    if len(pieces) == 2 and {type(pieces[0]), type(pieces[1])} == {PieceSC, PieceSt}:
        sc = next(p for p in pieces if isinstance(p, PieceSC))
        st = next(p for p in pieces if isinstance(p, PieceSt))
        tag, a = sc.tag, st.label
        rho = shape.sc_signs.get(tag)
        if rho is None:
            raise RowNotFound(f"no sign data for supercuspidal tag {tag!r}")
        eps0, twists = rho.eps, rho.eps_twists
        sigma0 = lambda e: Opaque("sigma0", (tag, e))
        pi0 = lambda e: Mp2Member(tag, e)
        # label order in the table: (sign on the supercuspidal, sign on chi_a x S_2);
        # align with the basis order of the shape
        first_is_sc = isinstance(pieces[0], PieceSC)

        def lab(es: Sign, ea: Sign) -> tuple:
            return (es, ea) if first_is_sc else (ea, es)

        if a == "1":
            rows = [
                (lab(1, 1), ThetaLift(True, 2, 1, 1, "1", OExt(sigma0(1), -eps0)),
                 so_st_pair(1, "1", sigma0(1))),
                (lab(1, -1), mp_st_pair("1", pi0(1)),
                 ThetaLift(False, 1, 2, -1, "1", pi0(1))),
                (lab(-1, 1), ThetaLift(True, 2, 1, -1, "1", OExt(sigma0(-1), eps0)),
                 so_st_pair(-1, "1", sigma0(-1))),
                (lab(-1, -1), mp_st_pair("1", pi0(-1)),
                 ThetaLift(False, 1, 2, 1, "1", pi0(-1))),
            ]
            return _sc_row("supercuspidal-plus-trivial-S2", rows)
        if a not in twists:
            raise RowNotFound(f"twisted root number by class {a!r} missing for tag {tag!r}")
        eps_a = eps0 * twists[a] * chim1(a)
        rows = [
            (lab(1, 1), mp_st_pair(a, pi0(1)), so_st_pair(1, a, sigma0(1))),
            (lab(1, -1),
             ThetaLift(True, 2, 1, eps_a, a, OExt(TwistNu(sigma0(eps_a), a), -eps0 * chim1(a))),
             TwistNu(ThetaLift(False, 1, 2, -1, a, pi0(eps_a)), a)),
            (lab(-1, 1), mp_st_pair(a, pi0(-1)), so_st_pair(-1, a, sigma0(-1))),
            (lab(-1, -1),
             ThetaLift(True, 2, 1, -eps_a, a, OExt(TwistNu(sigma0(-eps_a), a), eps0 * chim1(a))),
             TwistNu(ThetaLift(False, 1, 2, 1, a, pi0(-eps_a)), a)),
        ]
        return _sc_row("supercuspidal-plus-quadratic-S2", rows)

    if len(pieces) == 2 and all(isinstance(p, PieceSt) for p in pieces):
        a, b = pieces[0].label, pieces[1].label
        if a == b:
            return _double_row("double-steinberg", St2(a))
        if "1" in (a, b):
            c = a if b == "1" else b  # the nontrivial class
            one_first = a == "1"

            def lab(ec: Sign, e1: Sign) -> tuple:
                # (sign on chi_c x S_2, sign on 1 x S_2) -> basis order
                return (e1, ec) if one_first else (ec, e1)

            rows = [
                (lab(1, 1), mp_st_pair(c, WeilOdd("1")), so_st_pair(1, c, St2("1"))),
                (lab(1, -1), mp_st_pair(c, MpSt2("1")), so_st_pair(-1, c, NuChar("1"))),
                (lab(-1, 1), ThetaLift(True, 2, 1, -1, "1", OExt(NuChar(c), chim1(c))),
                 so_st_pair(-1, "1", NuChar(c))),
                (lab(-1, -1), mp_st_pair("1", WeilOdd(c)),
                 ThetaLift(False, 1, 2, 1, "1", WeilOdd(c))),
            ]
            return _sc_row("steinberg-plus-trivial", rows)
        ab = (place.class_from_label(a) * place.class_from_label(b)).label
        rows = [
            ((1, 1), mp_st_pair(a, MpSt2(b)), so_st_pair(1, a, St2(b))),
            ((1, -1), mp_st_pair(a, WeilOdd(b)), so_st_pair(-1, a, NuChar(b))),
            ((-1, 1), mp_st_pair(b, WeilOdd(a)), so_st_pair(-1, b, NuChar(a))),
            ((-1, -1), ThetaLift(True, 2, 1, -1, b, OExt(NuChar(ab), chim1(a) * chim1(b))),
             TwistNu(ThetaLift(False, 1, 2, 1, b, WeilOdd(a)), b)),
        ]
        return _sc_row("steinberg-pair", rows)

    if len(pieces) == 1 and isinstance(pieces[0], PieceSt):
        raise RowNotFound("a single S_2 constituent is 2-dimensional, not a parameter of Mp(4)")

    raise RowNotFound(f"no tabulated row for constituents {pieces!r}")


def principal_shimura_row(place: Place, a: SquareClass) -> SCRow:
    """The chi_a x S_4 row (tempered L-parameter with one Steinberg-type block)."""
    if not place.is_nonarch:
        raise RowNotFound("rows are tabulated at nonarchimedean places only")
    flip = -1 if a.is_trivial else 1  # at the trivial class the Mp sign is the opposite one
    return _sc_row("steinberg-S4", [((e,), MpStTwist(a.label, flip * e), SOStTwist(e, a.label)) for e in (1, -1)])


def orthogonal_shimura_row(place: Place, tau_tag: str) -> SCRow:
    """The rho x S_2 row for an irreducible orthogonal rho (tau supercuspidal)."""
    if not place.is_nonarch:
        raise RowNotFound("rows are tabulated at nonarchimedean places only")
    tau = SC2(tau_tag)
    rows = [
        ((1,), MpStTau(tau), SOStTau(tau)),
        ((-1,), mp_ds4([(("orthS2", tau_tag), -1)]), so_ds([(("orthS2", tau_tag), -1)])),
    ]
    return _sc_row("orthogonal-S2", rows)


# ---------------------------------------------------------------------------
# reducibility oracle (nonarchimedean composition series)


class ReductionResult(Record):
    reducible: bool
    constituents: tuple = ()  # (sub, quotient) or the two direct summands
    direct_sum: bool = False


IRREDUCIBLE = ReductionResult(False)


def reduce_mp4_p1(char, s: Fraction, inner: Desc) -> ReductionResult:
    """Composition series of I_{P1,psi}(chi|.|^s, pi) on Mp(W_2), s >= 0.

    pi ranges over the genuine square-integrable representations of Mp(W_1)
    and the even elementary Weil representations.
    """
    if s < 0:
        raise UnsupportedInduction("normalize to s >= 0")
    if not isinstance(inner, (Mp2Member, WeilOdd, WeilEven, MpSt2)):
        raise UnsupportedInduction(f"unsupported inducing representation {inner!r}")
    if not isinstance(char, QuadChar):
        return IRREDUCIBLE
    c = char.label
    if s == HALF:
        if isinstance(inner, (Mp2Member, WeilOdd)):
            if isinstance(inner, WeilOdd) and inner.label == c:
                return IRREDUCIBLE
            return ReductionResult(
                True, (mp_st_pair(c, inner), lq(MP4, [Seg(char, s)], inner))
            )
        if isinstance(inner, MpSt2):
            mu = inner.label
            if c != mu:
                sub = mp_st_pair(c, inner)
            elif c != "1":
                sub = MpGenNG(St2(c), True)
            else:
                sub = MpGenNG(St2("1"), False)
            return ReductionResult(True, (sub, lq(MP4, [Seg(char, s)], inner)))
        assert isinstance(inner, WeilEven)
        b = inner.label
        if c != b:
            sub = lq(MP4, [seg(b, HALF)], MpSt2(c))
        elif c != "1":
            sub = MpGenNG(St2(c), False)
        else:
            sub = MpGenNG(St2("1"), True)
        return ReductionResult(True, (sub, lq(MP4, [Seg(char, s)], inner)))
    if s == THREE_HALF:
        if isinstance(inner, MpSt2) and inner.label == c:
            return ReductionResult(
                True, (MpStTwist(c, 1), lq(MP4, [Seg(char, s)], inner))
            )
        if isinstance(inner, WeilOdd) and inner.label == c:
            return ReductionResult(True, (MpStTwist(c, -1), elementary_weil(2, -1, c)))
        if isinstance(inner, WeilEven) and inner.label == c:
            return ReductionResult(
                True, (lq(MP4, [GL2Seg(St2(c), Fraction(1))]), elementary_weil(2, 1, c))
            )
    return IRREDUCIBLE


def _reduce_p2(group, gen_ng, st_tau, st_twist, tau, s: Fraction, omega_trivial, self_dual) -> ReductionResult:
    """Composition series of the induction from tau |det|^s to ``group``, s >= 0.

    The target's members are gen_ng(tau, generic), st_tau(tau) and st_twist(label).
    """
    if s < 0:
        raise UnsupportedInduction("normalize to s >= 0")
    if isinstance(tau, St2):
        omega_trivial = True
    if omega_trivial is None:
        raise UnsupportedInduction("central character of tau must be specified")
    if omega_trivial and s == 0:
        return ReductionResult(True, (gen_ng(tau, True), gen_ng(tau, False)), direct_sum=True)
    if isinstance(tau, SC2) and self_dual and not omega_trivial and s == HALF:
        return ReductionResult(True, (st_tau(tau), lq(group, [GL2Seg(tau, s)])))
    if isinstance(tau, St2) and s == 1:
        return ReductionResult(True, (st_twist(tau.label), lq(group, [GL2Seg(tau, s)])))
    return IRREDUCIBLE


def reduce_mp4_p2(tau, s: Fraction, omega_trivial: bool | None = None, self_dual: bool = True) -> ReductionResult:
    """Composition series of I_{P2,psi}(tau |det|^s) on Mp(W_2), s >= 0."""
    return _reduce_p2(MP4, MpGenNG, MpStTau, lambda c: MpStTwist(c, 1), tau, s, omega_trivial, self_dual)


def reduce_so5_plus_q1(char, s: Fraction, inner: Desc) -> ReductionResult:
    """Composition series of I^+_{Q1}(chi|.|^s, sigma) on SO(V_2^+), s >= 0."""
    if s < 0:
        raise UnsupportedInduction("normalize to s >= 0")
    if not isinstance(inner, (Opaque, St2)):
        raise UnsupportedInduction(f"unsupported inducing representation {inner!r}")
    if not isinstance(char, QuadChar):
        return IRREDUCIBLE
    so5p = ("SO", 2, 1)
    c = char.label
    if s == HALF:
        if isinstance(inner, Opaque):  # supercuspidal sigma
            return ReductionResult(True, (so_st_pair(1, c, inner), lq(so5p, [Seg(char, s)], inner)))
        mu = inner.label
        sub = so_st_pair(1, c, inner) if c != mu else SOGenNG(St2(c), True)
        return ReductionResult(True, (sub, lq(so5p, [Seg(char, s)], inner)))
    if s == THREE_HALF and isinstance(inner, St2) and inner.label == c:
        return ReductionResult(True, (SOStTwist(1, c), lq(so5p, [Seg(char, s)], inner)))
    return IRREDUCIBLE


def reduce_so5_plus_q2(tau, s: Fraction, omega_trivial: bool | None = None, self_dual: bool = True) -> ReductionResult:
    """Composition series of I^+_{Q2}(tau |det|^s) on SO(V_2^+), s >= 0."""
    return _reduce_p2(("SO", 2, 1), SOGenNG, SOStTau, lambda c: SOStTwist(1, c), tau, s, omega_trivial, self_dual)


def reduce_so5_minus_q1(char, s: Fraction, inner: Desc) -> ReductionResult:
    """Composition series of I^-_{Q1}(chi|.|^s, sigma) on SO(V_2^-), s >= 0."""
    if s < 0:
        raise UnsupportedInduction("normalize to s >= 0")
    if not isinstance(inner, (Opaque, NuChar)):
        raise UnsupportedInduction(f"unsupported inducing representation {inner!r}")
    if not isinstance(char, QuadChar):
        return IRREDUCIBLE
    so5m = ("SO", 2, -1)
    c = char.label
    matches = isinstance(inner, NuChar) and inner.label == c
    if s == HALF and not matches:
        return ReductionResult(True, (so_st_pair(-1, c, inner), lq(so5m, [Seg(char, s)], inner)))
    if s == THREE_HALF and matches:
        return ReductionResult(True, (SOStTwist(-1, c), lq(so5m, [Seg(char, s)], inner)))
    return IRREDUCIBLE


# the reduction for each (group, parabolic) pair and the inducing data it
# reads, in its argument order; the GL(2) ones also read omega_trivial and
# self_dual when given
REDUCTIONS = {
    ("Mp4", "P1"): (reduce_mp4_p1, ("chi", "s", "inner")),
    ("Mp4", "P2"): (reduce_mp4_p2, ("tau", "s")),
    ("SO5+", "Q1"): (reduce_so5_plus_q1, ("chi", "s", "inner")),
    ("SO5+", "Q2"): (reduce_so5_plus_q2, ("tau", "s")),
    ("SO5-", "Q1"): (reduce_so5_minus_q1, ("chi", "s", "inner")),
}


def reducibility_oracle(group: str, parabolic: str, **data) -> ReductionResult:
    """Dispatch by (group, parabolic) through ``REDUCTIONS``; ``data`` is keyed as there."""
    if (group, parabolic) not in REDUCTIONS:
        raise UnsupportedInduction(f"no composition-series data for {group}/{parabolic}")
    reduce, needs = REDUCTIONS[group, parabolic]
    args = [data[key] for key in needs]
    if "tau" in needs:
        args += [data.get("omega_trivial"), data.get("self_dual", True)]
    return reduce(*args)
