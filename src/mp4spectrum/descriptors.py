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
  * GL(1) segments with equal exponents are sorted canonically;
  * the contragredient of an odd elementary Weil representation is
    rewritten via psi -> psi_{-1}.

Groups are ("Mp", n) for Mp(W_n) and ("SO", n, eps) for SO(V_n^eps).
Parabolics are tuples of GL-block sizes, so (1, 1) is the Borel of
Sp(W_2) and (1,), (2,) are P_1, P_2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .record import Record

Sign = int

MP2 = ("Mp", 1)
MP4 = ("Mp", 2)


def so_group(n: int, eps: Sign) -> tuple:
    return ("SO", n, eps)


# ---------------------------------------------------------------------------
# characters and GL(2) inducing data


class QuadChar(Record, order=True):
    """Quadratic character chi_a, named by the local square-class label."""

    label: str


class TagChar(Record, order=True):
    """Opaque unitary character tag (chi with chi^2 != 1), or its inverse."""

    tag: str
    inverted: bool = False


CharAtom = Union[QuadChar, TagChar]


class Seg(Record, order=True):
    """GL(1) segment chi |.|^s."""

    char: CharAtom
    s: Fraction


class St2(Record, order=True):
    """Twisted Steinberg representation st_chi of GL(2), nonarchimedean."""

    label: str


class SC2(Record, order=True):
    """Self-dual supercuspidal representation of GL(2), by opaque tag."""

    tag: str


class RealD(Record, order=True):
    """Relative discrete series D_a of GL(2, R)."""

    a: Fraction


GL2Rep = Union[St2, SC2, RealD]


class GL2Seg(Record, order=True):
    """GL(2) segment tau x |det|^s."""

    rep: GL2Rep
    s: Fraction


# ---------------------------------------------------------------------------
# atoms


class Zero(Record, order=True):
    pass


ZERO = Zero()


class WeilOdd(Record, order=True):
    """Odd elementary Weil representation of Mp(W_1) w.r.t. psi_a."""

    label: str


class WeilEven(Record, order=True):
    """Even elementary Weil representation of Mp(W_1) w.r.t. psi_a."""

    label: str


class MpSt2(Record, order=True):
    """Genuine Steinberg-type square-integrable rep of Mp(W_1) in I_{B,psi}(chi|.|^{1/2})."""

    label: str


class MpRealDS2(Record, order=True):
    """Genuine discrete series of Mp(2, R) of signed index a (weight a+1 or a-1)."""

    a: Fraction


class Mp2Member(Record, order=True):
    """Member of the rank-1 metaplectic packet of a supercuspidal 2-dim datum."""

    tag: str
    eps: Sign


class MpDS4(Record, order=True):
    """Square-integrable genuine rep of Mp(W_2) named by L-parameter key and sign label."""

    lparam: tuple
    label: tuple


class SODS(Record, order=True):
    """Square-integrable rep of SO(V_2^eps) named by L-parameter key and sign label."""

    lparam: tuple
    label: tuple


class RealLKT(Record, order=True):
    """Genuine (limit of) discrete series of Mp(4, R) named by lowest K'-type."""

    weights: tuple  # pair of Fractions, weakly decreasing


class MpStPair(Record, order=True):
    """St~_psi(chi, pi): square-integrable sub of I_{P1,psi}(chi|.|^{1/2}, pi)."""

    label: str
    inner: "Desc"


class MpStTwist(Record, order=True):
    """St~^{sign}_{chi,psi}: square-integrable subs at the s = 3/2 point."""

    label: str
    sign: Sign


class MpStTau(Record, order=True):
    """St~_psi(tau): square-integrable sub of I_{P2,psi}(tau |det|^{1/2})."""

    tau: GL2Rep


class MpGenNG(Record, order=True):
    """pi_{gen/ng,psi}(tau): the two tempered summands of I_{P2,psi}(tau)."""

    tau: GL2Rep
    generic: bool


class NuChar(Record, order=True):
    """chi_a o nu on a rank-1 special orthogonal group (nu = spinor norm)."""

    label: str


class SOStPair(Record, order=True):
    """St^{eps}(chi, sigma) on SO(V_2^eps)."""

    space_eps: Sign
    label: str
    inner: "Desc"


class SOStTwist(Record, order=True):
    """St^{eps}_chi on SO(V_2^eps)."""

    space_eps: Sign
    label: str


class SOStTau(Record, order=True):
    """St^{+}(tau) on SO(V_2^+)."""

    tau: GL2Rep


class SOGenNG(Record, order=True):
    """sigma_{gen/ng}(tau): the two tempered summands of I^+_{Q2}(tau)."""

    tau: GL2Rep
    generic: bool


class OExt(Record, order=True):
    """eps'-extension of a rank-1 special orthogonal rep to the full orthogonal group."""

    base: "Desc"
    sign: Sign


class ThetaLift(Record, order=True):
    """theta_{W_n, V_r^eps, psi_a}(source)."""

    to_metaplectic: bool  # True: target Mp(W_n); False: target SO/O(V_r^eps)
    n: int
    r: int
    space_eps: Sign
    twist: str  # square-class label a of psi_a
    source: "Desc"


class TwistNu(Record, order=True):
    """base tensored with chi_a o nu (SO side of the correspondence tables)."""

    base: "Desc"
    label: str


class Opaque(Record, order=True):
    """Named atom for members the tables leave abstract (supercuspidal partners etc.)."""

    head: str
    data: tuple = ()


class LQ(Record, order=True):
    """Langlands quotient J_{P,psi}(segments..., inner)."""

    group: tuple
    blocks: tuple  # GL block sizes of the parabolic
    segs: tuple  # Seg / GL2Seg entries, one per block
    inner: Union["Desc", None] = None


class DSum(Record, order=True):
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
    return Seg(char, Fraction(s))


def _seg_sort_key(sg) -> tuple:
    if isinstance(sg, Seg):
        return (-sg.s, 0, repr(sg.char))
    return (-sg.s, 1, repr(sg.rep))


def lq(group: tuple, segs: list, inner: Desc | None = None) -> Desc:
    """Build a normalized Langlands quotient.

    Flattens quotient-shaped inducing data (induction in stages) and sorts
    GL(1) segments; exponents must end up weakly decreasing.
    """
    if isinstance(inner, Zero):
        return ZERO
    segs = list(segs)
    # even Weil rep in inducing position is the Borel quotient J(chi_a|.|^{1/2})
    if isinstance(inner, WeilEven):
        segs.append(seg(inner.label, Fraction(1, 2)))
        inner = None
    # nested quotient of a smaller metaplectic group: merge the segments
    if isinstance(inner, LQ) and inner.group[0] == "Mp":
        segs.extend(inner.segs)
        inner = inner.inner
    gl1 = sorted((s for s in segs if isinstance(s, Seg)), key=_seg_sort_key)
    gl2 = [s for s in segs if isinstance(s, GL2Seg)]
    ordered = gl2 + gl1 if not gl1 or (gl2 and gl2[0].s >= gl1[0].s) else gl1 + gl2
    exps = [s.s for s in ordered]
    if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
        raise ValueError(f"segments are not in standard-module order: {ordered}")
    blocks = tuple(2 if isinstance(s, GL2Seg) else 1 for s in ordered)
    return LQ(group=group, blocks=blocks, segs=tuple(ordered), inner=inner)


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


def weil_odd_dual(label: str, minus_one_label: str, mul) -> WeilOdd:
    """(omega^-_{W_1, psi_a})^dual = omega^-_{W_1, psi_{-a}}."""
    return WeilOdd(mul(label, minus_one_label))


def elementary_weil(n: int, parity: Sign, label: str) -> Desc:
    """The elementary Weil representations of Mp(W_n) w.r.t. psi_a.

    Even: J_{B,psi}(chi_a|.|^{n-1/2}, ..., chi_a|.|^{1/2}).
    Odd:  J_{P,psi}(chi_a|.|^{n-1/2}, ..., chi_a|.|^{3/2}, omega^-_{W_1,psi_a}),
    with the n = 1 odd case the atomic supercuspidal representation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if parity == 1:
        segs = [seg(label, Fraction(2 * k - 1, 2)) for k in range(n, 0, -1)]
        return lq(("Mp", n), segs)
    if n == 1:
        return WeilOdd(label)
    segs = [seg(label, Fraction(2 * k - 1, 2)) for k in range(n, 1, -1)]
    return lq(("Mp", n), segs, WeilOdd(label))


# ---------------------------------------------------------------------------
# rendering


def _render_char(ch: CharAtom) -> str:
    if isinstance(ch, QuadChar):
        return "1" if ch.label == "1" else f"chi[{ch.label}]"
    return f"{ch.tag}^-1" if ch.inverted else ch.tag


def _render_frac(x: Fraction) -> str:
    return str(x)


def _render_gl2(rep: GL2Rep) -> str:
    if isinstance(rep, St2):
        return f"st_chi[{rep.label}]"
    if isinstance(rep, SC2):
        return f"sc[{rep.tag}]"
    return f"D_{_render_frac(rep.a)}"


def _render_group(group: tuple) -> str:
    if group[0] == "Mp":
        return f"Mp{2 * group[1]}"
    return f"SO{2 * group[1] + 1}{'+' if group[2] == 1 else '-'}"


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


def render(d: Desc) -> str:
    sgn = {1: "+", -1: "-"}
    if isinstance(d, (St2, SC2, RealD)):
        return _render_gl2(d)
    if isinstance(d, Zero):
        return "0"
    if isinstance(d, WeilOdd):
        return f"omega^-[psi_{d.label}]"
    if isinstance(d, WeilEven):
        return f"omega^+[psi_{d.label}]"
    if isinstance(d, MpSt2):
        return f"st~_chi[{d.label}]"
    if isinstance(d, MpRealDS2):
        return f"D~_{_render_frac(d.a)}"
    if isinstance(d, Mp2Member):
        return f"pi0^{sgn[d.eps]}[{d.tag}]"
    if isinstance(d, MpDS4):
        lab = ",".join(sgn[e] for e in d.label)
        par = "+".join(_render_piece(p) for p in d.lparam)
        return f"pi^({lab})[{par}]"
    if isinstance(d, SODS):
        lab = ",".join(sgn[e] for e in d.label)
        par = "+".join(_render_piece(p) for p in d.lparam)
        return f"sigma^({lab})[{par}]"
    if isinstance(d, RealLKT):
        return "pi_LKT(" + ",".join(_render_frac(w) for w in d.weights) + ")"
    if isinstance(d, MpStPair):
        return f"St~(chi[{d.label}], {render(d.inner)})"
    if isinstance(d, MpStTwist):
        return f"St~^{sgn[d.sign]}_chi[{d.label}]"
    if isinstance(d, MpStTau):
        return f"St~({_render_gl2(d.tau)})"
    if isinstance(d, MpGenNG):
        return f"pi_{'gen' if d.generic else 'ng'}({_render_gl2(d.tau)})"
    if isinstance(d, NuChar):
        return f"nu[{d.label}]"
    if isinstance(d, SOStPair):
        return f"St^{sgn[d.space_eps]}(chi[{d.label}], {render(d.inner)})"
    if isinstance(d, SOStTwist):
        return f"St^{sgn[d.space_eps]}_chi[{d.label}]"
    if isinstance(d, SOStTau):
        return f"St^+({_render_gl2(d.tau)})"
    if isinstance(d, SOGenNG):
        return f"sigma_{'gen' if d.generic else 'ng'}({_render_gl2(d.tau)})"
    if isinstance(d, OExt):
        return f"({render(d.base)})^{sgn[d.sign]}"
    if isinstance(d, ThetaLift):
        tgt = f"W{d.n}" if d.to_metaplectic else f"V{d.r}{sgn[d.space_eps]}"
        src = f"V{d.r}{sgn[d.space_eps]}" if d.to_metaplectic else f"W{d.n}"
        return f"theta[{src}->{tgt}, psi_{d.twist}]({render(d.source)})"
    if isinstance(d, TwistNu):
        return f"{render(d.base)} (x) nu[{d.label}]"
    if isinstance(d, Opaque):
        inside = ",".join(str(x) for x in d.data)
        return f"{d.head}({inside})" if inside else d.head
    if isinstance(d, LQ):
        parts = []
        for s in d.segs:
            if isinstance(s, Seg):
                base = _render_char(s.char)
                parts.append(f"|.|^{_render_frac(s.s)}" if base == "1" else f"{base}|.|^{_render_frac(s.s)}")
            else:
                parts.append(f"{_render_gl2(s.rep)}|det|^{_render_frac(s.s)}")
        if d.inner is not None:
            parts.append(render(d.inner))
        psi = ",psi" if d.group[0] == "Mp" else ""
        return f"J_{{{_render_parabolic(d.group, d.blocks)}{psi}}}({', '.join(parts)})"
    if isinstance(d, DSum):
        return " (+) ".join(render(p) for p in d.parts)
    raise TypeError(f"unknown descriptor {d!r}")
