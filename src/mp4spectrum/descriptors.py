"""Symbolic descriptors for packet members.

Every representation the tables mention is encoded as a small immutable
term: Langlands quotients J_{P,psi}(...), theta-lift descriptors,
square-integrable atoms, lowest-K'-type descriptors at real places,
direct sums, and Zero.  Equality of descriptors is structural equality
after normalization, which implements the rewrites the tables use
implicitly:

  * a Langlands quotient whose inducing data is itself a Langlands
    quotient of a smaller metaplectic group flattens into a single
    quotient (induction in stages);
  * an even elementary Weil representation in inducing position is
    rewritten to its Borel quotient form before flattening;
  * GL(1) segments are sorted by decreasing exponent, equal exponents by
    the repr of their character (a pair alone, the common case, is
    compared directly; more take two stable sorts);
  * the contragredient of an odd elementary Weil representation is
    rewritten via psi -> psi_{-1}.

Groups are ("Mp", n) for Mp(W_n) and ("SO", n, eps) for SO(V_n^eps).
Parabolics are tuples of GL-block sizes, so (1, 1) is the Borel of
Sp(W_2) and (1,), (2,) are P_1, P_2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Union

from .chargroups import sign_label, sign_str
from .record import Record

Sign = int

MP4 = ("Mp", 2)

# the fixed exponents, one object each, which lq orders by identity when a pair's are the same object
HALF = Fraction(1, 2)
THREE_HALF = Fraction(3, 2)


def half_odd(k: int) -> Fraction:
    """k - 1/2, the shared constant for k = 1 and 2."""
    return HALF if k == 1 else THREE_HALF if k == 2 else Fraction(2 * k - 1, 2)


# ---------------------------------------------------------------------------
# characters and GL(2) inducing data


class QuadChar(Record):
    """Quadratic character chi_a, named by the local square-class label."""

    label: str


class TagChar(Record):
    """Opaque unitary character tag (chi with chi^2 != 1), or its inverse."""

    tag: str
    inverted: bool = False


CharAtom = Union[QuadChar, TagChar]


class Seg(Record):
    """GL(1) segment chi |.|^s."""

    char: CharAtom
    s: Fraction


class St2(Record):
    """Twisted Steinberg representation st_chi of GL(2), nonarchimedean."""

    label: str


class SC2(Record):
    """Self-dual supercuspidal representation of GL(2), by opaque tag."""

    tag: str


class RealD(Record):
    """Relative discrete series D_a of GL(2, R)."""

    a: Fraction


GL2Rep = Union[St2, SC2, RealD]


class GL2Seg(Record):
    """GL(2) segment tau x |det|^s."""

    rep: GL2Rep
    s: Fraction


# ---------------------------------------------------------------------------
# atoms


class Zero(Record):
    pass


ZERO = Zero()


class WeilOdd(Record):
    """Odd elementary Weil representation of Mp(W_1) w.r.t. psi_a."""

    label: str


class WeilEven(Record):
    """Even elementary Weil representation of Mp(W_1) w.r.t. psi_a."""

    label: str


class MpSt2(Record):
    """Genuine Steinberg-type square-integrable rep of Mp(W_1) in I_{B,psi}(chi|.|^{1/2})."""

    label: str


class MpRealDS2(Record):
    """Genuine discrete series of Mp(2, R) of signed index a (weight a+1 or a-1)."""

    a: Fraction


class Mp2Member(Record):
    """Member of the rank-1 metaplectic packet of a supercuspidal 2-dim datum."""

    tag: str
    eps: Sign


class MpDS4(Record):
    """Square-integrable genuine rep of Mp(W_2) named by L-parameter key and sign label."""

    lparam: tuple
    label: tuple


class SODS(Record):
    """Square-integrable rep of SO(V_2^eps) named by L-parameter key and sign label."""

    lparam: tuple
    label: tuple


class RealLKT(Record):
    """Genuine (limit of) discrete series of Mp(4, R) named by lowest K'-type."""

    weights: tuple  # pair of Fractions, weakly decreasing


class MpStPair(Record):
    """St~_psi(chi, pi): square-integrable sub of I_{P1,psi}(chi|.|^{1/2}, pi)."""

    label: str
    inner: "Desc"


class MpStTwist(Record):
    """St~^{sign}_{chi,psi}: square-integrable subs at the s = 3/2 point."""

    label: str
    sign: Sign


class MpStTau(Record):
    """St~_psi(tau): square-integrable sub of I_{P2,psi}(tau |det|^{1/2})."""

    tau: GL2Rep


class MpGenNG(Record):
    """pi_{gen/ng,psi}(tau): the two tempered summands of I_{P2,psi}(tau)."""

    tau: GL2Rep
    generic: bool


class NuChar(Record):
    """chi_a o nu on a rank-1 special orthogonal group (nu = spinor norm)."""

    label: str


class SOStPair(Record):
    """St^{eps}(chi, sigma) on SO(V_2^eps)."""

    space_eps: Sign
    label: str
    inner: "Desc"


class SOStTwist(Record):
    """St^{eps}_chi on SO(V_2^eps)."""

    space_eps: Sign
    label: str


class SOStTau(Record):
    """St^{+}(tau) on SO(V_2^+)."""

    tau: GL2Rep


class SOGenNG(Record):
    """sigma_{gen/ng}(tau): the two tempered summands of I^+_{Q2}(tau)."""

    tau: GL2Rep
    generic: bool


class OExt(Record):
    """eps'-extension of a rank-1 special orthogonal rep to the full orthogonal group."""

    base: "Desc"
    sign: Sign


class ThetaLift(Record):
    """theta_{W_n, V_r^eps, psi_a}(source)."""

    to_metaplectic: bool  # True: target Mp(W_n); False: target SO/O(V_r^eps)
    n: int
    r: int
    space_eps: Sign
    twist: str  # square-class label a of psi_a
    source: "Desc"


class TwistNu(Record):
    """base tensored with chi_a o nu (SO side of the correspondence tables)."""

    base: "Desc"
    label: str


class Opaque(Record):
    """Named atom for members the tables leave abstract (supercuspidal partners etc.)."""

    head: str
    data: tuple = ()


class LQ(Record):
    """Langlands quotient J_{P,psi}(segments..., inner)."""

    group: tuple
    blocks: tuple  # GL block sizes of the parabolic
    segs: tuple  # Seg / GL2Seg entries, one per block
    inner: Union["Desc", None] = None


class DSum(Record):
    parts: tuple


Desc = Union[
    Zero, WeilOdd, WeilEven, MpSt2, MpRealDS2, Mp2Member, MpDS4, SODS, RealLKT,
    MpStPair, MpStTwist, MpStTau, MpGenNG, NuChar, SOStPair, SOStTwist,
    SOStTau, SOGenNG, OExt, ThetaLift, TwistNu, Opaque, LQ, DSum,
]


# ---------------------------------------------------------------------------
# smart constructors


def seg(label_or_char, s) -> Seg:
    char = QuadChar(label_or_char) if isinstance(label_or_char, str) else label_or_char
    return Seg(char, s if type(s) is Fraction else Fraction(s))


def lq(group: tuple, segs: list, inner: Desc | None = None) -> Desc:
    """Build a normalized Langlands quotient.

    Flattens quotient-shaped inducing data (induction in stages) and sorts
    GL(1) segments; exponents must end up weakly decreasing.
    """
    if inner is not None:
        if isinstance(inner, Zero):
            return ZERO
        # even Weil rep in inducing position is the Borel quotient J(chi_a|.|^{1/2})
        if isinstance(inner, WeilEven):
            segs = [*segs, seg(inner.label, HALF)]
            inner = None
        # nested quotient of a smaller metaplectic group: merge the segments
        elif isinstance(inner, LQ) and inner.group[0] == "Mp":
            segs = [*segs, *inner.segs]
            inner = inner.inner
    if inner is None and len(segs) == 2:
        x, y = segs
        if type(x) is Seg and type(y) is Seg:
            # two GL(1) segments, put in the order of the key (-s, repr(char)) below; the reprs of two QuadChars
            # order as their labels' reprs do, since no label's repr is the start of another's
            if x.s is y.s or x.s == y.s:
                a, b = (x.char.label, y.char.label) if type(x.char) is QuadChar is type(y.char) else (x.char, y.char)
                if repr(b) < repr(a):
                    x, y = y, x
            elif x.s < y.s:
                x, y = y, x
            return LQ(group, (1, 1), (x, y), None)
    gl1 = [s for s in segs if type(s) is Seg]
    gl2 = [s for s in segs if type(s) is GL2Seg]
    if len(gl1) > 1:
        # two stable sorts give the order of the key (-s, repr(char))
        gl1.sort(key=_char_repr)
        gl1.sort(key=attrgetter("s"), reverse=True)
    ordered = gl2 + gl1 if not gl1 or (gl2 and gl2[0].s >= gl1[0].s) else gl1 + gl2
    for left, right in zip(ordered, ordered[1:]):
        if left.s < right.s:
            raise ValueError(f"segments are not in standard-module order: {ordered}")
    blocks = tuple(2 if type(s) is GL2Seg else 1 for s in ordered)
    return LQ(group=group, blocks=blocks, segs=tuple(ordered), inner=inner)


def _char_repr(sg: Seg) -> str:
    return repr(sg.char)


def dsum(*parts: Desc) -> Desc:
    flat: list[Desc] = []
    for p in parts:
        if isinstance(p, DSum):
            flat.extend(p.parts)
        elif isinstance(p, Zero):
            continue
        else:
            flat.append(p)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return DSum(tuple(sorted(flat, key=repr)))


def elementary_weil(n: int, parity: Sign, label: str) -> Desc:
    """The elementary Weil representations of Mp(W_n) w.r.t. psi_a.

    Even: J_{B,psi}(chi_a|.|^{n-1/2}, ..., chi_a|.|^{1/2}).
    Odd:  J_{P,psi}(chi_a|.|^{n-1/2}, ..., chi_a|.|^{3/2}, omega^-_{W_1,psi_a}),
    with the n = 1 odd case the atomic supercuspidal representation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if parity == 1:
        segs = [seg(label, half_odd(k)) for k in range(n, 0, -1)]
        return lq(("Mp", n), segs)
    if n == 1:
        return WeilOdd(label)
    segs = [seg(label, half_odd(k)) for k in range(n, 1, -1)]
    return lq(("Mp", n), segs, WeilOdd(label))


# ---------------------------------------------------------------------------
# rendering


def _render_char(ch: CharAtom) -> str:
    if isinstance(ch, QuadChar):
        return "1" if ch.label == "1" else f"chi[{ch.label}]"
    return f"{ch.tag}^-1" if ch.inverted else ch.tag


def _render_gl2(rep: GL2Rep) -> str:
    return _FORMATS[type(rep)](rep)


def _render_parabolic(group: tuple, blocks: tuple) -> str:
    n = group[1]
    if sum(blocks) == n and all(b == 1 for b in blocks):
        return "B"
    if len(blocks) == 1:
        return ("Q" if group[0] == "SO" else "P") + str(blocks[0])
    return ("Q" if group[0] == "SO" else "P") + "(" + ",".join(map(str, blocks)) + ")"


def _render_piece(p) -> str:
    if isinstance(p, tuple):
        return "x".join(str(x) for x in p)
    # localization constituents carry their own record fields
    name = type(p).__name__
    vals = ",".join(str(v) for v in vars(p).values())
    return f"{name[5:] if name.startswith('Piece') else name}({vals})"


def _render_lq(d: LQ) -> str:
    parts = []
    for s in d.segs:
        if type(s) is Seg:
            base = _render_char(s.char)
            parts.append(f"|.|^{s.s}" if base == "1" else f"{base}|.|^{s.s}")
        else:
            parts.append(f"{_render_gl2(s.rep)}|det|^{s.s}")
    if d.inner is not None:
        parts.append(render(d.inner))
    psi = ",psi" if d.group[0] == "Mp" else ""
    return f"J_{{{_render_parabolic(d.group, d.blocks)}{psi}}}({', '.join(parts)})"


def _render_theta(d: ThetaLift) -> str:
    tgt = f"W{d.n}" if d.to_metaplectic else f"V{d.r}{sign_str(d.space_eps)}"
    src = f"V{d.r}{sign_str(d.space_eps)}" if d.to_metaplectic else f"W{d.n}"
    return f"theta[{src}->{tgt}, psi_{d.twist}]({render(d.source)})"


def _render_opaque(d: Opaque) -> str:
    inside = ",".join(str(x) for x in d.data)
    return f"{d.head}({inside})" if inside else d.head


# one formatter per descriptor class (and GL(2) representation), looked up by type(d)
_FORMATS = {
    LQ: _render_lq,
    DSum: lambda d: " (+) ".join(map(render, d.parts)),
    St2: lambda d: f"st_chi[{d.label}]",
    SC2: lambda d: f"sc[{d.tag}]",
    RealD: lambda d: f"D_{d.a}",
    Zero: lambda d: "0",
    WeilOdd: lambda d: f"omega^-[psi_{d.label}]",
    WeilEven: lambda d: f"omega^+[psi_{d.label}]",
    MpSt2: lambda d: f"st~_chi[{d.label}]",
    MpRealDS2: lambda d: f"D~_{d.a}",
    Mp2Member: lambda d: f"pi0^{sign_str(d.eps)}[{d.tag}]",
    MpDS4: lambda d: f"pi^{sign_label(d.label)}[{'+'.join(map(_render_piece, d.lparam))}]",
    SODS: lambda d: f"sigma^{sign_label(d.label)}[{'+'.join(map(_render_piece, d.lparam))}]",
    RealLKT: lambda d: "pi_LKT(" + ",".join(map(str, d.weights)) + ")",
    MpStPair: lambda d: f"St~(chi[{d.label}], {render(d.inner)})",
    MpStTwist: lambda d: f"St~^{sign_str(d.sign)}_chi[{d.label}]",
    MpStTau: lambda d: f"St~({_render_gl2(d.tau)})",
    MpGenNG: lambda d: f"pi_{'gen' if d.generic else 'ng'}({_render_gl2(d.tau)})",
    NuChar: lambda d: f"nu[{d.label}]",
    SOStPair: lambda d: f"St^{sign_str(d.space_eps)}(chi[{d.label}], {render(d.inner)})",
    SOStTwist: lambda d: f"St^{sign_str(d.space_eps)}_chi[{d.label}]",
    SOStTau: lambda d: f"St^+({_render_gl2(d.tau)})",
    SOGenNG: lambda d: f"sigma_{'gen' if d.generic else 'ng'}({_render_gl2(d.tau)})",
    OExt: lambda d: f"({render(d.base)})^{sign_str(d.sign)}",
    ThetaLift: _render_theta,
    TwistNu: lambda d: f"{render(d.base)} (x) nu[{d.label}]",
    Opaque: _render_opaque,
}


def render(d: Desc) -> str:
    fmt = _FORMATS.get(type(d))
    if fmt is None:
        raise TypeError(f"unknown descriptor {d!r}")
    return fmt(d)
