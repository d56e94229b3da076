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

  * listed_tuples solves the F2-affine system cut out by the pullback
    condition (one affine solve over the concatenated local character
    masks, kernel enumeration) and drops, by character index, the tuples
    with a vanishing local member; enumerate_constituents and the CLI's
    enumerate both read its index tuples;
  * brute_force_count iterates the full product of local packet entries
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

    __slots__ = ("param", "iota", "member", "_entries", "_at")

    def __init__(self, param: LocalParam, iota: LocalizationMap):
        self.param = param
        self.iota = iota
        self.member = None
        self._entries = None
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
            self._entries = tuple(local_packet(self.param))
        return self._entries

    def entry(self, label: int) -> PacketEntry:
        e = self._at.get(label)
        if e is None:
            e = self._at[label] = packet_entry(self.param, label)
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


def _constituent(eta_pairs: list, member_pairs: list, choice: tuple) -> Constituent:
    """The constituent at one multiplicity-one tuple of character indexes.

    eta_pairs[k][i] and member_pairs[k][i] are the (place id, character)
    and (place id, member) pairs of character i at the k-th place; sharing
    them keeps each constituent to a handful of new objects.
    """
    eta = AdelicCharacter(tuple(map(getitem, eta_pairs, choice)))
    return Constituent(eta, tuple(map(getitem, member_pairs, choice)), multiplicity=1)


def _solutions_by_linear_algebra(phi: AParameter, locals_: list[LocalData]) -> list[tuple]:
    """Index tuples of all adelic characters with Delta^* eta = eps~, in order.

    The unknown is the concatenation of the local character masks, the
    first place most significant, so ascending solutions are adelic
    characters in AdelicCharacter.sort_key order.  Its equations are one
    parity per global generator (eta on the images of that generator has
    product eps~) and one per local relation (eta is trivial on it).
    The affine solve runs once and the global kernel is a basis, so no
    solution repeats.  More than ENUMERATE_LIMIT solutions raise
    ScenarioTooLarge before any is listed.
    """
    eps = epsilon_tilde(phi)
    rows = [0] * len(eps.group.basis)
    relations = []
    slices = []  # (shift, mask, character index by mask) per place
    width = 0
    for ld in reversed(locals_):
        n = len(ld.group.basis)
        rows = [row | (img << width) for row, img in zip(rows, ld.iota.images)]
        relations += [r << width for r in ld.group.relations]
        slices.append((width, (1 << n) - 1, {e.label.bits: i for i, e in enumerate(ld.entries)}))
        width += n
    slices.reverse()
    solved = solve_affine(rows + relations, eps.bits << len(relations), width)
    if solved is None:
        return []
    x0, kernel = solved
    if 1 << len(kernel) > ENUMERATE_LIMIT:
        raise ScenarioTooLarge(
            f"{1 << len(kernel)} multiplicity-one tuples to list, above the limit of {ENUMERATE_LIMIT}"
        )
    span = [x0]
    for b in kernel:
        span += [v ^ b for v in span]
    span.sort()
    return list(zip(*([index[(x >> shift) & mask] for x in span] for shift, mask, index in slices)))


def listed_tuples(
    phi: AParameter, places: list[Place], include_vanishing: bool = False
) -> tuple[list[LocalData], list[tuple[tuple, bool]]]:
    """The local data and the multiplicity-one tuples, as character indexes.

    Returns (locals_, [(choice, vanishing), ...]) in AdelicCharacter.sort_key
    order: choice[k] indexes locals_[k].entries, and vanishing says whether
    a local member of the tuple is zero.  Without include_vanishing those
    tuples are dropped, by index against each place's zero members.
    """
    locals_ = prepare_local_data(phi, places)
    zeros = [{i for i, e in enumerate(ld.entries) if e.is_zero} for ld in locals_]
    zeros = [(k, z) for k, z in enumerate(zeros) if z]
    listed = [(c, any(c[k] in z for k, z in zeros)) for c in _solutions_by_linear_algebra(phi, locals_)]
    if not include_vanishing:
        listed = [pair for pair in listed if not pair[1]]
    return locals_, listed


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
    locals_, listed = listed_tuples(phi, places, include_vanishing)
    eta_pairs = [tuple((ld.place.id, e.label) for e in ld.entries) for ld in locals_]
    member_pairs = [tuple((ld.place.id, e.member) for e in ld.entries) for ld in locals_]
    return [_constituent(eta_pairs, member_pairs, choice) for choice, _ in listed]


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
