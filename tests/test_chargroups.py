"""Component groups, characters, and the F2 solver."""

import itertools

import pytest
from hypothesis import given, strategies as st

from mp4spectrum.chargroups import (
    ComponentGroup,
    F2Character,
    LocalizationMap,
    from_mask,
    rref,
    solve_affine,
    to_mask,
)


def _image(iota, x):
    """Image under iota of the global element with mask x (generator 0 first)."""
    out = 0
    for bit, m in zip(from_mask(x, len(iota.images)), iota.images):
        if bit:
            out ^= m
    return out


def test_mask_convention():
    # basis 0 is the most significant bit
    assert to_mask((1, 0, 0)) == 0b100 and to_mask(()) == 0
    assert from_mask(0b100, 3) == (1, 0, 0) and from_mask(0, 0) == ()
    for x in range(16):
        assert to_mask(from_mask(x, 4)) == x


def test_free_group_characters():
    g = ComponentGroup(("a1", "a2"))
    chars = g.characters()
    assert [c.values for c in chars] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert g.rank == 2 and g.order() == 4


def test_trivial_group():
    g = ComponentGroup(())
    assert [c.values for c in g.characters()] == [()]
    assert g.rank == 0


def test_diagonal_quotient_characters():
    g = ComponentGroup(("a1", "a2"), (0b11,))
    assert [c.values for c in g.characters()] == [(1, 1), (-1, -1)]
    assert g.rank == 1


def test_first_factor_quotient_characters():
    g = ComponentGroup(("a1", "a2"), (0b10,))
    assert [c.values for c in g.characters()] == [(1, 1), (1, -1)]


def test_character_respects_relations():
    g = ComponentGroup(("a1", "a2"), (0b11,))
    with pytest.raises(ValueError):
        g.character((1, -1))
    with pytest.raises(ValueError):
        g.character((1,))
    assert g.character((-1, -1)) == F2Character(g, 0b11)


def test_character_product_and_on():
    g = ComponentGroup(("a1", "a2"))
    c1 = g.character((1, -1))
    c2 = g.character((-1, -1))
    assert c1.bits == 0b01 and c2.bits == 0b11
    assert (c1 * c2).values == (-1, 1)
    assert c1.on(0b11) == -1
    assert c1.on(0b00) == 1
    assert (c1 * c2).on(0b10) == c1.on(0b10) * c2.on(0b10)


def test_rref_and_affine_solver():
    rows = [0b110, 0b011, 0b101]
    assert len(rref(rows)) == 2
    assert rref([0b011, 0b110]) == [0b101, 0b011]
    sol = solve_affine([0b110, 0b011], 0b10, 3)
    assert sol is not None
    x0, kernel = sol
    assert kernel == [0b111]
    for x in (x0, x0 ^ kernel[0]):
        b0, b1, b2 = from_mask(x, 3)
        assert (b0 ^ b1) == 1 and (b1 ^ b2) == 0
    assert solve_affine([0b10, 0b10], 0b01, 2) is None


@given(st.lists(st.integers(0, 31), max_size=6), st.integers(0, 31))
def test_affine_solutions_are_exactly_the_solution_set(rows, target):
    rhs = [(r & target).bit_count() & 1 for r in rows]  # consistent by construction
    x0, kernel = solve_affine(rows, to_mask(rhs), 5)
    assert len(kernel) == 5 - len(rref(rows))
    span = {x0}
    for b in kernel:
        span |= {v ^ b for v in span}
    assert span == {x for x in range(32) if all((r & x).bit_count() & 1 == v for r, v in zip(rows, rhs))}


def test_localization_map_linearity():
    g = ComponentGroup(("b1", "b2"), (0b11,))
    iota = LocalizationMap(g, (0b10, 0b11))
    assert iota.rows == ((1, 0), (1, 1))
    for x in range(4):
        for y in range(4):
            assert _image(iota, x ^ y) == _image(iota, x) ^ _image(iota, y)


def test_pullback_functorial():
    g = ComponentGroup(("b1", "b2"))
    iota = LocalizationMap(g, (0b11, 0b01))
    for eta in g.characters():
        pulled = iota.pullback(eta)
        # the pullback is again a character of the free global group
        val = lambda v: eta.on(_image(iota, v))
        for x in range(4):
            for y in range(4):
                assert val(x ^ y) == val(x) * val(y)
        assert pulled == to_mask(eta.on(m) == -1 for m in iota.images)
        assert pulled == to_mask(val(x) == -1 for x in (0b10, 0b01))


@given(st.lists(st.integers(0, 7), max_size=4))
def test_characters_are_exactly_relation_orthogonal_vectors(relations):
    g = ComponentGroup(("x", "y", "z"), tuple(relations))
    chars = g.characters()
    assert len(chars) == g.order()
    assert [c.bits for c in chars] == sorted(c.bits for c in chars)
    seen = {c.values for c in chars}
    for values in itertools.product((1, -1), repeat=3):
        bits = tuple(0 if v == 1 else 1 for v in values)
        ok = all(sum(a & b for a, b in zip(bits, from_mask(r, 3))) % 2 == 0 for r in relations)
        assert (values in seen) == ok
