"""Adelic characters, the multiplicity formula, and constituent enumeration.

An adelic character is one local character per scenario place (implicitly
trivial elsewhere in the closed world).  Its diagonal pullback evaluates
each global generator a_i as the product over places of eta_v on the
image of a_i under the localization map.  The multiplicity of pi_eta is
1 exactly when the pullback equals the sign character of the parameter.

Every route (both counting routes, residual_spectrum, the CLI's packet
and component-group) reads a parameter's data at a place from one
LocalData, built only by local_data: the local parameter, the map iota
from S_phi, and the local packet, its entries built as they are read.

Two counting routes are kept deliberately independent:

  * listed_tuples reads the pullback condition one place at a time: each
    packet entry's residue (LocalData.factors) is its character's pullback
    to S_phi, and a multiplicity-one tuple is one whose residues sum to
    eps~.  One walk over the places, pruned by the residues the places
    still ahead can reach, lays the tuples down in order, the ones with a
    vanishing member left out unless asked for; an affine solve over the
    concatenated local character masks first bounds their number.
    enumerate_constituents and the CLI's enumerate both read it;
  * brute_force_count iterates the full product of local packet entries
    and applies the definitional test tuple by tuple.

Their agreement is the main acceptance gate.
"""

from __future__ import annotations

import itertools
from .chargroups import ComponentGroup, F2Character, LocalizationMap, solve_affine
from .descriptors import Zero
from .fields import Place
from .localization import LocalParam, localize
from .packets import PacketEntry, local_packet, packet_entry
from .parameters import AParameter, component_group, epsilon_tilde
from .record import Record


class ScenarioTooLarge(ValueError):
    pass


BRUTE_FORCE_PLACE_CAP = 6
# most multiplicity-one tuples listed_tuples lists; a scenario with more is
# refused before any of them is built
ENUMERATE_LIMIT = 1 << 17


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
        # lexicographic over (place id, character mask), +1 before -1
        return tuple((pid, ch.bits) for pid, ch in self.components)


class Constituent(Record):
    eta: AdelicCharacter
    local_members: tuple  # ordered (place_id, Desc) pairs
    multiplicity: int

    @property
    def has_zero_member(self) -> bool:
        return any(isinstance(d, Zero) for _, d in self.local_members)


class LocalData:
    """A parameter's local data at one place: param and iota, which give place and group.

    entries (the packet) and entry(label) build each entry once; member is the designated member once built.
    """

    __slots__ = ("param", "iota", "member", "_entries", "_at", "_factors")

    def __init__(self, param: LocalParam, iota: LocalizationMap):
        self.param = param
        self.iota = iota
        self.member = None
        self._entries = None
        self._factors = None
        self._at = {}  # label mask -> its packet entry

    @property
    def place(self) -> Place:
        return self.param.place

    @property
    def group(self) -> ComponentGroup:
        return self.iota.target

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(local_packet(self.param, self.iota.target))
        return self._entries

    @property
    def factors(self) -> tuple:
        """(residue, is zero) per entry, built once; the residue is the pullback of the entry's character.

        They are iota.residues, worked out once per shared map in mask order,
        the entries' order.  Delta^* eta is the sum of its components'
        residues, so the pullback condition can be read one place at a time.
        """
        if self._factors is None:
            self._factors = tuple(zip(self.iota.residues, [e.is_zero for e in self.entries]))
        return self._factors

    def entry(self, label: int) -> PacketEntry:
        e = self._at.get(label)
        if e is None:
            e = self._at[label] = packet_entry(self.param, label, self.iota.target)
        return e


def local_data(phi: AParameter, place: Place) -> LocalData:
    lp, _, iota = localize(phi, place)
    return LocalData(lp, iota)


def prepare_local_data(phi: AParameter, places: list[Place]) -> list[LocalData]:
    return [local_data(phi, place) for place in sorted(places, key=lambda p: p.id)]


def diagonal_pullback(phi: AParameter, places: list[Place], eta: AdelicCharacter) -> F2Character:
    """Delta^* eta on the global component group."""
    bits = 0
    for place in places:
        bits ^= local_data(phi, place).iota.pullback(eta.component(place.id))
    return F2Character(component_group(phi), bits)


def multiplicity(phi: AParameter, places: list[Place], eta: AdelicCharacter) -> int:
    return 1 if diagonal_pullback(phi, places, eta) == epsilon_tilde(phi) else 0


def _constituent(pieces: list, n: int) -> Constituent:
    """The constituent whose n (place id, character) pairs, then n (place id, member) pairs, are pieces."""
    return Constituent(AdelicCharacter(tuple(pieces[:n])), tuple(pieces[n:]), multiplicity=1)


def listed_tuples(phi: AParameter, locals_: list[LocalData], rows: list, tails: tuple, include_vanishing=False) -> list:
    """The multiplicity-one tuples laid down in one list, in AdelicCharacter.sort_key order.

    rows[k][i] is the tuple of items that entry i of locals_[k] gives.  A
    tuple lays down item 0 of its entries' rows in place order, then item 1
    and so on, then tails[vanishing], vanishing saying whether a local
    member is zero (such tuples are left out without include_vanishing).

    The affine solve first refuses more than ENUMERATE_LIMIT
    multiplicity-one tuples, vanishing ones included.  A backward pass then
    keys tables[k] by the residues the places from k on can sum to, each
    with the entries of place k, in mask order, that leave a residue the
    places after k can sum to.  The walk keeps an explicit stack of places,
    no recursion, so it meets the tuples in order and enters no branch
    that does not end at eps~: nothing is sorted, decoded or dropped.
    """
    eps = epsilon_tilde(phi)
    # over the concatenated local character masks, one parity row per global generator and one per local relation
    images = [0] * len(eps.group.basis)
    relations, width = [], 0
    for ld in reversed(locals_):
        images = [row | (img << width) for row, img in zip(images, ld.iota.images)]
        relations += [r << width for r in ld.group.relations]
        width += len(ld.group.basis)
    solved = solve_affine(images + relations, eps.bits << len(relations), width)
    if solved is None:
        return []
    if 1 << len(solved[1]) > ENUMERATE_LIMIT:
        raise ScenarioTooLarge(
            f"{1 << len(solved[1])} multiplicity-one tuples to list, above the limit of {ENUMERATE_LIMIT}"
        )
    tables, ahead = [], {0: ()}  # past the last place only the residue 0 is left
    for col, ld in zip(reversed(rows), reversed(locals_)):
        step = [(row, r, zero) for row, (r, zero) in zip(col, ld.factors) if include_vanishing or not zero]
        needs = {r ^ s for _, r, _ in step for s in ahead}
        ahead = {t: [(row, t ^ r, zero) for row, r, zero in step if t ^ r in ahead] for t in needs}
        tables.append(ahead)
    tables.reverse()
    n, last, out = len(locals_), len(locals_) - 1, []
    stack = [None] * (n * len(rows[0][0]))
    walks, vanishing = [iter(tables[0].get(eps.bits, ()))], [False]
    while walks:
        k = len(walks) - 1
        for row, need, zero in walks[k]:
            stack[k::n] = row
            v = vanishing[k] or zero
            if k + 1 < last:
                walks.append(iter(tables[k + 1][need]))
                vanishing.append(v)
                break
            if k == last:  # one place only
                out += stack
                out.append(tails[v])
                continue
            for row, _, zero in tables[last][need]:
                stack[last::n] = row
                out += stack
                out.append(tails[v or zero])
        else:
            walks.pop()
            vanishing.pop()
    return out


def enumerate_constituents(
    phi: AParameter, places: list[Place], include_vanishing: bool = False
) -> list[Constituent]:
    """Discrete-spectrum constituents, in deterministic order.

    With include_vanishing=True the multiplicity-one tuples whose member
    vanishes locally are kept too, each in its place in that order
    (flagged by has_zero_member), mirroring the distinction between the
    character condition and nonvanishing.

    Places are ordered by id, so the constituents come in
    AdelicCharacter.sort_key order.
    """
    locals_ = prepare_local_data(phi, places)
    rows = [[((ld.place.id, e.label), (ld.place.id, e.member)) for e in ld.entries] for ld in locals_]
    pieces, n = listed_tuples(phi, locals_, rows, (False, True), include_vanishing), len(locals_)
    return [_constituent(pieces[i : i + 2 * n], n) for i in range(0, len(pieces), 2 * n + 1)]


def brute_force_count(phi: AParameter, places: list[Place]) -> int:
    """Oracle count: full product iteration with the definitional test."""
    if len(places) > BRUTE_FORCE_PLACE_CAP:
        raise ScenarioTooLarge(f"more than {BRUTE_FORCE_PLACE_CAP} places")
    locals_ = prepare_local_data(phi, places)
    eps = epsilon_tilde(phi).values
    count = 0
    for choice in itertools.product(*(ld.entries for ld in locals_)):
        ok = True
        for i, sign in enumerate(eps):
            prod = 1
            for ld, e in zip(locals_, choice):
                prod *= e.label.on(ld.iota.images[i])
            if prod != sign:
                ok = False
                break
        if not ok:
            continue
        if any(e.is_zero for e in choice):
            continue
        count += 1
    return count
