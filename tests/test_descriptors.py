"""The symbolic term language: normalization, elementary Weil forms, rendering."""

import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mp4spectrum import descriptors
from mp4spectrum.descriptors import (
    MP4,
    SC2,
    DSum,
    GL2Seg,
    LQ,
    QuadChar,
    RealD,
    Seg,
    St2,
    TagChar,
    WeilEven,
    WeilOdd,
    ZERO,
    Zero,
    dsum,
    elementary_weil,
    lq,
    render,
    seg,
)

H = Fraction(1, 2)


def test_even_weil_quotient_forms():
    assert elementary_weil(2, 1, "u") == lq(MP4, [seg("u", Fraction(3, 2)), seg("u", H)])
    assert render(elementary_weil(2, 1, "1")) == "J_{B,psi}(|.|^3/2, |.|^1/2)"


def test_odd_weil_base_case_is_atomic():
    assert elementary_weil(1, -1, "u") == WeilOdd("u")
    assert elementary_weil(1, 1, "u") == lq(("Mp", 1), [seg("u", H)])


def test_odd_weil_n3():
    got = elementary_weil(3, -1, "u")
    assert isinstance(got, LQ)
    assert got.blocks == (1, 1)
    assert [s.s for s in got.segs] == [Fraction(5, 2), Fraction(3, 2)]
    assert got.inner == WeilOdd("u")
    assert render(got) == "J_{P(1,1),psi}(chi[u]|.|^5/2, chi[u]|.|^3/2, omega^-[psi_u])"


def test_flattening_even_weil_inner():
    got = lq(MP4, [seg("u", H)], WeilEven("p"))
    assert got == lq(MP4, [seg("u", H), seg("p", H)])
    assert got.inner is None and got.blocks == (1, 1)


def test_flattening_nested_quotient():
    inner = lq(("Mp", 1), [seg("p", H)])
    got = lq(MP4, [seg("u", Fraction(3, 2))], inner)
    assert got == lq(MP4, [seg("u", Fraction(3, 2)), seg("p", H)])


def test_equal_exponent_segments_sorted():
    a = lq(MP4, [seg("u", H), seg("1", H)])
    b = lq(MP4, [seg("1", H), seg("u", H)])
    assert a == b


def test_segments_are_a_multiset():
    # the quotient is named by the multiset of segments; input order is free
    a = lq(MP4, [seg("u", H), seg("u", Fraction(3, 2))])
    b = lq(MP4, [seg("u", Fraction(3, 2)), seg("u", H)])
    assert a == b
    assert [s.s for s in a.segs] == [Fraction(3, 2), H]


def test_zero_inner_collapses():
    assert lq(MP4, [seg("u", H)], ZERO) == ZERO


def test_dsum_flattens_and_sorts():
    a, b = WeilOdd("u"), WeilOdd("1")
    assert dsum(a) == a
    assert dsum(a, ZERO) == a
    s = dsum(a, b)
    assert isinstance(s, DSum) and s == dsum(b, a)
    assert dsum(s, WeilEven("u")).parts[-1] is not None


def test_tag_characters_distinct_from_quadratic():
    assert Seg(TagChar("mu"), H) != Seg(QuadChar("mu"), H)
    assert TagChar("mu", True) != TagChar("mu", False)


def test_render_is_deterministic():
    d = lq(MP4, [seg("u", Fraction(3, 2))], WeilOdd("u"))
    assert render(d) == "J_{P1,psi}(chi[u]|.|^3/2, omega^-[psi_u])"


def _seg_sort_key(sg) -> tuple:
    if isinstance(sg, Seg):
        return (-sg.s, 0, repr(sg.char))
    return (-sg.s, 1, repr(sg.rep))


def _reference_lq(group, segs, inner=None):
    """lq as it was written with one sort key per segment, the reference for its ordering."""
    if isinstance(inner, Zero):
        return ZERO
    segs = list(segs)
    if isinstance(inner, WeilEven):
        segs.append(seg(inner.label, Fraction(1, 2)))
        inner = None
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


def _outcome(build, segs, inner):
    try:
        return build(MP4, segs, inner)
    except ValueError as err:
        return str(err)


_LABELS = st.sampled_from(["1", "-1", "u", "p", "up"])
# tags whose reprs switch quote style or hold characters below "'", so their repr order is not their tag order
_TAGS = st.sampled_from(["mu", "nu", "it's", 'say "x"', "a\\b", "!", " ", "&", "mu'"])
_CHARS = st.one_of(st.builds(QuadChar, _LABELS), st.builds(TagChar, _TAGS, st.booleans()))
# few exponents, so that equal ones are common
_EXPONENTS = st.sampled_from([Fraction(0), Fraction(1, 4), H, Fraction(1), Fraction(3, 2), Fraction(5, 2)])
_GL2_REPS = st.one_of(
    st.builds(St2, _LABELS), st.builds(SC2, st.sampled_from(["t1", "t2"])), st.builds(RealD, _EXPONENTS)
)
_SEGS = st.one_of(st.builds(Seg, _CHARS, _EXPONENTS), st.builds(GL2Seg, _GL2_REPS, _EXPONENTS))


def _nested(group, segs, inner):
    return LQ(group=group, blocks=tuple(2 if isinstance(s, GL2Seg) else 1 for s in segs), segs=tuple(segs), inner=inner)


_INNER = st.one_of(
    st.none(),
    st.just(ZERO),
    st.builds(WeilEven, _LABELS),
    st.builds(WeilOdd, _LABELS),
    st.builds(
        _nested,
        st.sampled_from([("Mp", 1), ("Mp", 2), ("SO", 2, 1)]),
        st.lists(_SEGS, max_size=3),
        st.one_of(st.none(), st.builds(WeilOdd, _LABELS)),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SEGS, max_size=5), _INNER)
def test_lq_orders_segments_as_the_sort_key_did(segs, inner):
    # the same quotient, or the same ValueError text, as sorting by (-s, 0, repr(char))
    assert _outcome(lq, segs, inner) == _outcome(_reference_lq, segs, inner)


_GL1 = st.builds(Seg, _CHARS, _EXPONENTS)
# two to four GL(1) segments, often with equal exponents, and equal characters
_GL1_LISTS = st.one_of(
    st.lists(_GL1, min_size=2, max_size=4),
    _GL1.map(lambda s: [s, Seg(s.char, s.s)]),
    st.tuples(_GL1, _EXPONENTS).map(lambda t: [t[0], Seg(t[0].char, t[1])]),
)


@settings(max_examples=400, deadline=None)
@given(_GL1_LISTS, st.one_of(st.none(), st.builds(WeilEven, _LABELS)))
def test_lq_orders_gl1_segments_by_exponent_then_repr(segs, inner):
    # the one ordering rule: exponent descending, then the repr of the character,
    # stable; an even Weil inner member adds its segment chi_a|.|^{1/2} first
    flat = segs + [seg(inner.label, H)] if inner else segs
    got = lq(MP4, segs, inner)
    assert got == LQ(MP4, (1,) * len(flat), tuple(sorted(flat, key=lambda s: (-s.s, repr(s.char)))), None)


# labels with quotes, backslashes, control and non-ASCII characters, whose reprs switch quote style or escape
_ODD_LABELS = st.text(st.characters(), max_size=4) | st.sampled_from(["a", "a'", 'a"', "a\\", "'", '"', "é", "\x00"])


@settings(max_examples=400, deadline=None)
@given(_ODD_LABELS, _ODD_LABELS, _EXPONENTS)
def test_lq_orders_a_quadchar_pair_as_its_record_reprs(a, b, s):
    # at equal exponents lq orders two QuadChar segments by their labels'
    # reprs, which is the order of the QuadChar reprs the sort key reads
    x, y = Seg(QuadChar(a), s), Seg(QuadChar(b), s)
    first = min((x, y), key=lambda sg: repr(sg.char))
    assert lq(MP4, [x, y]).segs[0] == first == lq(MP4, [y, x]).segs[0]


def test_quadchar_pair_order_is_not_the_raw_label_order():
    # "a" < "a'", but repr("a") = 'a' sorts after repr("a'") = "a'", as the
    # QuadChar reprs do, so comparing the raw labels would order the pair wrong
    x, y = Seg(QuadChar("a"), H), Seg(QuadChar("a'"), H)
    assert "a" < "a'" and repr(y.char) < repr(x.char)
    assert lq(MP4, [x, y]).segs == (y, x) == lq(MP4, [y, x]).segs


def test_render_has_one_formatter_per_descriptor_class():
    assert set(descriptors._FORMATS) == {*typing.get_args(descriptors.Desc), St2, SC2, RealD}
    for value in (3, "0", (ZERO,), None, Seg(QuadChar("u"), H)):
        with pytest.raises(TypeError) as err:
            render(value)
        assert str(err.value) == f"unknown descriptor {value!r}"
