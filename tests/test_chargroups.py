"""Component groups, characters, and the F2 solver."""

import itertools
import operator
import os

import pytest
from hypothesis import given, strategies as st

from golden_calls import FIXTURE_NAMES, FIXTURES, enumerate_scaled_scenarios
from mp4spectrum import localization
from mp4spectrum.chargroups import (
    ComponentGroup,
    F2Character,
    LocalizationMap,
    from_mask,
    rref,
    solve_affine,
    to_mask,
)
from mp4spectrum.localization import ShTempered, local_group
from mp4spectrum.multiplicity import prepare_local_data
from mp4spectrum.scenario import load_scenario, scenario_from_dict


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


# ---------------------------------------------------------------------------
# characters shared per group object

# every local group localize hands out: the module constants, tempered ones included
SHARED_GROUPS = (
    *(getattr(localization, name) for name in ("_TRIVIAL", "_RANK1", "_FREE2", "_FIRST2", "_DIAGONAL2")),
    *localization._TEMPERED[1:],
    localization._REPEATED,
)


@pytest.fixture(scope="module")
def input_local_data():
    """Every LocalData of the fixtures and of the seed-1 enumerate-scaled inputs."""
    scenarios = [load_scenario(os.path.join(FIXTURES, f"{name}.json")) for name in FIXTURE_NAMES]
    scenarios += [scenario_from_dict(doc) for doc in enumerate_scaled_scenarios(1)]
    return [ld for sc in scenarios for ld in prepare_local_data(sc.parameter, sc.places)]


def test_every_local_group_hands_out_one_set_of_characters(input_local_data):
    for ld in input_local_data:
        # every group, a tempered shape's too, is one of the shared constants
        assert local_group(ld.param.shape) is ld.group and any(ld.group is g for g in SHARED_GROUPS)
    assert any(isinstance(ld.param.shape, ShTempered) for ld in input_local_data)
    for group in SHARED_GROUPS:
        chars, again = group.characters(), group.characters()
        assert all(map(operator.is_, chars, again)) and len(chars) == len(again) == group.order()
        assert all(group.at_mask(ch.bits) is ch for ch in chars) and group.trivial_character() is chars[0]
        width = len(group.basis)
        for ch in chars:
            fresh = F2Character(group, ch.bits)
            assert ch == fresh and hash(ch) == hash(fresh) and repr(ch) == repr(fresh)
            values = tuple(-1 if ch.bits >> (width - 1 - j) & 1 else 1 for j in range(width))
            label = "(" + ",".join("+" if v == 1 else "-" for v in values) + ")"
            assert ch.values == fresh.values == values and ch.sign_label == fresh.sign_label == label
            # computed once per character object
            assert ch.values is ch.values and ch.sign_label is ch.sign_label


def test_every_shared_map_holds_its_residues_once(input_local_data):
    # a map's residues are the pullbacks of its target's characters in mask
    # order, and LocalData.factors pairs them with its entries' zero flags
    for iota in localization._MAPS.values():
        assert iota.residues == tuple(iota.pullback(ch) for ch in iota.target.characters())
        assert iota.residues is iota.residues
    for ld in input_local_data:
        assert ld.factors == tuple((ld.iota.pullback(e.label), e.is_zero) for e in ld.entries)


def test_packet_entries_use_the_group_localize_built(input_local_data):
    assert any(isinstance(ld.param.shape, ShTempered) for ld in input_local_data)
    for ld in input_local_data:
        chars = ld.iota.target.characters()
        assert [e.label for e in ld.entries] == chars
        assert all(e.label is ch and e.label.group is ld.iota.target for e, ch in zip(ld.entries, chars))
        # an entry built alone carries the same character
        assert all(ld.entry(ch.bits).label is ch for ch in chars)
