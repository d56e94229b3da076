"""Adelic characters, the multiplicity formula, and constituent enumeration.

An adelic character is one local character per scenario place (implicitly
trivial elsewhere in the closed world).  Its diagonal pullback evaluates
each global generator a_i as the product over places of eta_v on the
image of a_i under the localization map.  The multiplicity of pi_eta is
1 exactly when the pullback equals the sign character of the parameter.

Two counting routes are kept deliberately independent:

  * enumerate_constituents solves the F2-affine system cut out by the
    pullback condition (basis of each local character subgroup, affine
    solve, kernel enumeration) and then filters out tuples with a
    vanishing local member;
  * brute_force_count iterates the full product of local character lists
    and applies the definitional test tuple by tuple.

Their agreement is the main acceptance gate.
"""

from __future__ import annotations

import itertools
from operator import getitem
from .chargroups import ComponentGroup, F2Character, LocalizationMap, solve_affine
from .descriptors import Zero
from .fields import Place
from .localization import LocalParam, localize
from .packets import PacketEntry, local_packet
from .parameters import AParameter, epsilon_tilde
from .record import Record


class ScenarioTooLarge(ValueError):
    pass


BRUTE_FORCE_PLACE_CAP = 6


class AdelicCharacter(Record):
    components: tuple  # ordered (place_id, F2Character) pairs

    def component(self, place_id: str) -> F2Character:
        for pid, ch in self.components:
            if pid == place_id:
                return ch
        raise KeyError(place_id)

    def signs(self) -> tuple:
        return tuple((pid, ch.values) for pid, ch in self.components)

    def sort_key(self) -> tuple:
        # lexicographic over (place id, character bits), +1 before -1
        return tuple((pid, ch.bits) for pid, ch in self.components)


class Constituent(Record):
    eta: AdelicCharacter
    local_members: tuple  # ordered (place_id, Desc) pairs
    multiplicity: int

    @property
    def has_zero_member(self) -> bool:
        return any(isinstance(d, Zero) for _, d in self.local_members)


class LocalData(Record):
    place: Place
    param: LocalParam
    group: ComponentGroup
    iota: LocalizationMap
    characters: tuple
    entries: tuple  # PacketEntry per character, aligned

    def entry_for(self, ch: F2Character) -> PacketEntry:
        return self.entries[self.characters.index(ch)]


def prepare_local_data(phi: AParameter, places: list[Place]) -> list[LocalData]:
    out = []
    for place in sorted(places, key=lambda p: p.id):
        lp, group, iota = localize(phi, place)
        entries = tuple(local_packet(lp))
        out.append(LocalData(place, lp, group, iota, tuple(e.label for e in entries), entries))
    return out


def diagonal_pullback(phi: AParameter, places: list[Place], eta: AdelicCharacter) -> F2Character:
    """Delta^* eta on the global component group."""
    from .parameters import component_group

    group = component_group(phi)
    values = [1] * len(group.basis)
    for place in places:
        _, _, iota = localize(phi, place)
        for i, sign in enumerate(iota.pullback(eta.component(place.id))):
            values[i] *= sign
    return F2Character(group, tuple(values))


def multiplicity(phi: AParameter, places: list[Place], eta: AdelicCharacter) -> int:
    return 1 if diagonal_pullback(phi, places, eta) == epsilon_tilde(phi) else 0


def _constituent(eta_pairs: list, member_pairs: list, choice: tuple) -> Constituent:
    """The constituent at one multiplicity-one tuple of character indexes.

    eta_pairs[k][i] and member_pairs[k][i] are the (place id, character)
    and (place id, member) pairs of character i at the k-th place; sharing
    them keeps each constituent to a handful of new objects.
    """
    eta = AdelicCharacter(tuple(map(getitem, eta_pairs, choice)))
    return Constituent(eta, tuple(map(getitem, member_pairs, choice)), multiplicity=1)


def _local_kernel(group: ComponentGroup) -> list:
    """Basis of the sign-exponent vectors orthogonal to the group's relations."""
    n = len(group.basis)
    if not group.relations:
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    sol = solve_affine(list(group.relations), [0] * len(group.relations), n)
    assert sol is not None
    return sol[1]


def _index_table(ld: LocalData, kernel: list) -> tuple:
    """Character index in ld.characters for each coefficient word over the kernel.

    Bit k of a word is the coefficient of kernel[k]; the kernel spans
    exactly the characters of the group, so every word has an index.
    """
    index_of = {ch.bits: i for i, ch in enumerate(ld.characters)}
    span = [(0,) * len(ld.group.basis)]
    for bvec in kernel:
        span += [tuple(a ^ b for a, b in zip(v, bvec)) for v in span]
    return tuple(index_of[v] for v in span)


def _to_int(vec) -> int:
    return sum(1 << j for j, bit in enumerate(vec) if bit)


def _solutions_by_linear_algebra(phi: AParameter, locals_: list[LocalData]):
    """Index tuples of all adelic characters with Delta^* eta = eps~.

    Unknowns are the concatenated coefficient words of the local
    characters over a basis of each local character group.  The affine
    solve runs once; each solution is an int bitmask whose slice at a
    place indexes that place's precomputed table into ld.characters.
    The global kernel is a basis, so no solution repeats.
    """
    eps = epsilon_tilde(phi)
    local_bases = []
    slices = []  # (offset, mask, index table) per place
    width = 0
    for ld in locals_:
        kernel = _local_kernel(ld.group)
        local_bases.append(kernel)
        slices.append((width, (1 << len(kernel)) - 1, _index_table(ld, kernel)))
        width += len(kernel)

    # rows: one per global generator; unknowns: coefficients over the local bases
    rows = []
    rhs = []
    for i in range(len(eps.group.basis)):
        row = []
        for ld, basis in zip(locals_, local_bases):
            img = ld.iota.image_of_generator(i)
            row.extend(sum(a & b for a, b in zip(bvec, img)) % 2 for bvec in basis)
        rows.append(row)
        rhs.append(0 if eps.values[i] == 1 else 1)
    solved = solve_affine(rows, rhs, width)
    if solved is None:
        return
    x0, kernel = solved
    x0 = _to_int(x0)
    span = [0]
    for bvec in kernel:
        b = _to_int(bvec)
        span += [v ^ b for v in span]
    for delta in span:
        x = x0 ^ delta
        yield tuple(table[(x >> off) & mask] for off, mask, table in slices)


def enumerate_constituents(
    phi: AParameter, places: list[Place], include_vanishing: bool = False
) -> list[Constituent]:
    """Discrete-spectrum constituents, in deterministic order.

    With include_vanishing=True the multiplicity-one tuples whose member
    vanishes locally are appended (flagged by has_zero_member), mirroring
    the distinction between the character condition and nonvanishing.

    Places are ordered by id and each ld.characters in ascending bits, so
    sorting index tuples gives AdelicCharacter.sort_key order.
    """
    locals_ = prepare_local_data(phi, places)
    eta_pairs = [tuple((ld.place.id, ch) for ch in ld.characters) for ld in locals_]
    member_pairs = [tuple((ld.place.id, e.member) for e in ld.entries) for ld in locals_]
    picked = []
    for choice in sorted(_solutions_by_linear_algebra(phi, locals_)):
        cons = _constituent(eta_pairs, member_pairs, choice)
        if include_vanishing or not cons.has_zero_member:
            picked.append(cons)
    return picked


def brute_force_count(phi: AParameter, places: list[Place]) -> int:
    """Oracle count: full product iteration with the definitional test."""
    if len(places) > BRUTE_FORCE_PLACE_CAP:
        raise ScenarioTooLarge(f"more than {BRUTE_FORCE_PLACE_CAP} places")
    locals_ = prepare_local_data(phi, places)
    eps = epsilon_tilde(phi)
    n_gen = len(eps.group.basis)
    count = 0
    for choice in itertools.product(*(ld.characters for ld in locals_)):
        ok = True
        for i in range(n_gen):
            prod = 1
            for ld, ch in zip(locals_, choice):
                prod *= ch.on(ld.iota.image_of_generator(i))
            if prod != eps.values[i]:
                ok = False
                break
        if not ok:
            continue
        if any(ld.entry_for(ch).is_zero for ld, ch in zip(locals_, choice)):
            continue
        count += 1
    return count
