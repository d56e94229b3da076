"""The residual spectrum of Mp(4) over a closed-world scenario.

Constituents are enumerated by cuspidal support:

  P1  three families: J_{P1,psi}(chi|.|^{3/2}, pi) over rank-1 metaplectic
      cuspidal representations pi of Weil type chi x S_2 (principal
      parameter); J_{P1,psi}(chi|.|^{1/2}, pi) over pi with parameter
      rho x S_1 and L(1/2, rho x chi) != 0 (Saito-Kurokawa parameter);
      J_{P1,psi}(chi_1|.|^{1/2}, pi) over ordered pairs of distinct
      quadratic characters with pi of type chi_2 x S_2 and
      chi_{1,v} != chi_{2,v} on S(pi) (Howe-PS parameter);
  P2  J_{P2,psi}(rho |det|^{1/2}) over dihedral data with nontrivial
      quadratic central character (Soudry parameter);
  B   J_{B,psi}(chi|.|^{3/2}, chi|.|^{1/2}) per quadratic character and
      J_{B,psi}(chi_1|.|^{1/2}, chi_2|.|^{1/2}) per unordered distinct
      pair (principal and Howe-PS parameters).

A Weil-type rank-1 cuspidal representation is determined by its character
chi and the even set S(pi) of places where it is the odd elementary Weil
representation; rank-1 cuspidal representations of type rho x S_1 are
enumerated through the rank-1 multiplicity condition (product of local
signs equals the root number of rho).

Each distinct parameter is built (so classified) once.  Local work sees
a place only through its kind: it is keyed by the kind and, per summand
of phi in canonical order, d with the element's class bits or the datum's
name and local shape, localized at the first place reaching the key, and
read by P1 through its packet, built once, at the mask of the local
character.  B and P2 read the designated member, built once per
packets.designated_key (labels and data: a Soudry split place and an HPS
pair share one), and so does P1 at the all-plus character, whose packet
entry equals it; a packet is built only where some P1 constituent reads
another character.  Each shared member object is rendered once per report.
More than multiplicity.ENUMERATE_LIMIT P1-SK constituents are refused early.
"""

from __future__ import annotations

import itertools
import math

from .descriptors import render, sign_str
from .fields import GlobalElement, Place
from .localization import LocalParam, localize
from .multiplicity import ENUMERATE_LIMIT, ScenarioTooLarge
from .packets import designated_key, designated_l_packet_member, local_packet
from .parameters import AParameter, CuspidalDatum, InvalidParameter, classify, rho_is_irreducible
from .record import Record


class Mp2CuspidalWeil(Record):
    """Rank-1 metaplectic cuspidal rep of Weil type: character + even place set."""

    name: str
    chi: str  # element name
    s_places: frozenset

    def validate(self, place_ids: set, element_names: set) -> None:
        if self.chi not in element_names:
            raise InvalidParameter(f"{self.name}: unknown character {self.chi!r}")
        if not self.s_places:
            raise InvalidParameter(f"{self.name}: S(pi) must be nonempty")
        if len(self.s_places) % 2:
            raise InvalidParameter(f"{self.name}: S(pi) must have even cardinality")
        if not self.s_places <= place_ids:
            raise InvalidParameter(f"{self.name}: S(pi) mentions unknown places")


class ResidualConstituent(Record):
    name: str
    support: str  # "P1" | "P2" | "B"
    family: str  # "principal" | "saito-kurokawa" | "howe-piatetski-shapiro" | "soudry"
    descriptor: tuple  # ordered (place_id, Desc) pairs
    parameter: AParameter

    def rendered(self, shown: dict) -> dict:
        """The report dict; ``shown`` maps id(member) -> rendering across one call."""
        members = {}
        for pid, d in self.descriptor:
            text = shown.get(id(d))
            if text is None:
                text = shown[id(d)] = render(d)
            members[pid] = text
        return {"name": self.name, "support": self.support, "family": self.family, "members": members}


class _Local:
    """One local key of a residual_spectrum call, with what was built from it so far."""

    __slots__ = ("param", "member", "packet")

    def __init__(self, param: LocalParam):
        self.param = param
        self.member = None  # the designated member
        self.packet = None  # label mask -> packet member


def _sign_vectors(k: int, root: int) -> list:
    """The sign vectors of length k with product root, in itertools.product order."""
    if k == 0:
        return [()] if root == 1 else []
    return [(*head, root * math.prod(head)) for head in itertools.product((1, -1), repeat=k - 1)]


def residual_spectrum(
    places: list[Place],
    elements: list[GlobalElement],
    cuspidal: list[CuspidalDatum],
    mp2_weil: list[Mp2CuspidalWeil],
) -> list[ResidualConstituent]:
    """All residual constituents the declared data generate, deterministically ordered."""
    places = sorted(places, key=lambda p: p.id)
    elements = sorted(elements, key=lambda e: e.name)
    cuspidal = sorted(cuspidal, key=lambda d: d.name)
    mp2_weil = sorted(mp2_weil, key=lambda w: w.name)
    sk_pairs = [
        (rho, chi, [p for p in places if rho_is_irreducible(rho.local[p.id])])
        for rho in cuspidal
        if rho.duality == "symplectic" and rho.gl_rank == 2
        for chi in elements
        if rho.l_half_nonzero.get(chi.name, False)
    ]
    sk_count = sum(1 << (len(irr) - 1) if irr else rho.global_root == 1 for rho, _, irr in sk_pairs)
    if sk_count > ENUMERATE_LIMIT:
        raise ScenarioTooLarge(f"{sk_count} P1-SK constituents to list, above the limit of {ENUMERATE_LIMIT}")
    out: list[ResidualConstituent] = []
    shared: dict = {}  # basis labels -> the call's one instance of that parameter
    at_places: dict = {}  # id of a shared parameter -> its _Local per place
    by_key: dict = {}  # local key -> _Local
    members: dict = {}  # designated key -> the designated member

    def parameter(summands):
        """The shared instance, so that each parameter is classified once."""
        phi = AParameter.of(summands)
        return shared.setdefault(phi.basis_labels(), phi)

    def localized(phi):
        """phi's _Local at each place; each local key is localized once per call."""
        if id(phi) not in at_places:
            at_places[id(phi)] = []
            for p in places:
                data = [(d, s.name, s.local[p.id]) if type(s) is CuspidalDatum else (d, s.classes[p.id].bits)
                        for s, d in phi.summands]
                key = (p.kind, *data)
                at = by_key.get(key)
                if at is None:
                    at = by_key[key] = _Local(localize(phi, p)[0])
                at_places[id(phi)].append(at)
        return at_places[id(phi)]

    def member(at):
        """at's designated member, built once per designated key."""
        if at.member is None:
            key = designated_key(at.param)
            at.member = members.get(key) or members.setdefault(key, designated_l_packet_member(at.param))
        return at.member

    def designated(phi):
        return [(p.id, member(at)) for p, at in zip(places, localized(phi))]

    def at_labels(phi, labels):
        """The packet member at each place's label, a character mask (one per place).

        Label 0, the all-plus character, reads the designated member, which
        equals the packet's all-plus entry; only other labels build the packet.
        """
        out = []
        for p, at, label in zip(places, localized(phi), labels):
            if not label:
                out.append((p.id, member(at)))
                continue
            if at.packet is None:
                at.packet = {e.label.bits: e.member for e in local_packet(at.param)}
            out.append((p.id, at.packet[label]))
        return out

    def add(name, support, phi, members):
        out.append(ResidualConstituent(name, support, classify(phi).value, tuple(members), phi))

    # Borel family: one constituent per character, one per unordered distinct pair
    for chi in elements:
        phi = parameter([(chi, 4)])
        add(f"B-pr[{chi.name}]", "B", phi, designated(phi))
    for e1, e2 in itertools.combinations(elements, 2):
        phi = parameter([(e1, 2), (e2, 2)])
        add(f"B-HPS[{e1.name},{e2.name}]", "B", phi, designated(phi))

    # P2 family: dihedral data with nontrivial quadratic central character
    for rho in cuspidal:
        if rho.duality != "orthogonal" or not rho.dihedral or rho.trivial_central_char:
            continue
        phi = parameter([(rho, 2)])
        add(f"P2[{rho.name}]", "P2", phi, designated(phi))

    # P1, principal family: Weil-type pi with parameter chi x S_2
    for chi in elements:
        phi = parameter([(chi, 4)])
        for pi in mp2_weil:
            if pi.chi != chi.name:
                continue
            labels = [1 if p.id in pi.s_places else 0 for p in places]
            add(f"P1-pr[{chi.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    # P1, Saito-Kurokawa family: pairs (chi, rho) with L(1/2, rho x chi) != 0
    for rho, chi, irr in sk_pairs:
        phi = parameter([(rho, 1), (chi, 2)])
        for signs in _sign_vectors(len(irr), rho.global_root):
            eps1 = dict(zip((p.id for p in irr), signs))
            labels = [0b10 if eps1.get(p.id, 1) == -1 else 0 for p in places]
            sig = "".join(sign_str(eps1.get(p.id, 1)) for p in places)
            add(f"P1-SK[{chi.name};{rho.name};{sig}]", "P1", phi, at_labels(phi, labels))

    # P1, Howe-PS family: ordered pairs with chi_{1,v} != chi_{2,v} on S(pi)
    for e1 in elements:
        for e2 in elements:
            if e1.name == e2.name:
                continue
            for pi in mp2_weil:
                if pi.chi != e2.name:
                    continue
                if any(e1.local(p) == e2.local(p) for p in places if p.id in pi.s_places):
                    continue
                phi = parameter([(e1, 2), (e2, 2)])
                # the sign sits on the generator of e2, in the canonical summand order of phi
                bit = 0b01 if phi.summands[0][0].name == e1.name else 0b10
                labels = [bit if p.id in pi.s_places else 0 for p in places]
                add(f"P1-HPS[{e1.name},{e2.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    return out
