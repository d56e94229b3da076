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

Each distinct parameter is built (so classified) once, localized once
per place, and its local data shared by every family that uses it: B-pr
and P1-pr share chi x S_4, B-HPS and P1-HPS share (chi_1 x S_2) +
(chi_2 x S_2), and one P1-SK parameter serves all its sign vectors.  B
and P2 read the designated member, built once per local parameter and
shared by every parameter that localizes to it; packets are built only
for P1 parameters, once each, and P1 reads a member by the mask of its
local character.  Each shared member object is rendered once per report.
"""

from __future__ import annotations

import itertools

from .descriptors import render, sign_str
from .fields import GlobalElement, Place
from .localization import localize
from .packets import designated_l_packet_member, local_packet
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


def residual_spectrum(
    places: list[Place],
    elements: list[GlobalElement],
    cuspidal: list[CuspidalDatum],
    mp2_weil: list[Mp2CuspidalWeil],
) -> list[ResidualConstituent]:
    """All residual constituents the declared data generate, deterministically ordered."""
    places = sorted(places, key=lambda p: p.id)
    out: list[ResidualConstituent] = []
    shared: dict = {}  # basis labels -> the call's one instance of that parameter
    local_params: dict = {}  # basis labels -> LocalParam per place
    packets: dict = {}  # basis labels -> {label mask: member} per place
    members: dict = {}  # LocalParam -> designated member, shared by the parameters localizing to it

    def parameter(summands):
        """The shared instance, so that each parameter is classified once."""
        phi = AParameter.of(summands)
        return shared.setdefault(phi.basis_labels(), phi)

    def localized(phi):
        key = phi.basis_labels()
        if key not in local_params:
            local_params[key] = [localize(phi, p)[0] for p in places]
        return local_params[key]

    def designated(phi):
        out = []
        for p, lp in zip(places, localized(phi)):
            member = members.get(lp)
            if member is None:
                member = members[lp] = designated_l_packet_member(lp)
            out.append((p.id, member))
        return out

    def at_labels(phi, labels):
        """The packet member at each place's label, a character mask (one per place)."""
        key = phi.basis_labels()
        if key not in packets:
            packets[key] = [{e.label.bits: e.member for e in local_packet(lp)} for lp in localized(phi)]
        return [(p.id, members[label]) for p, members, label in zip(places, packets[key], labels)]

    def add(name, support, phi, members):
        out.append(
            ResidualConstituent(
                name=name,
                support=support,
                family=classify(phi).value,
                descriptor=tuple(members),
                parameter=phi,
            )
        )

    # Borel family: one constituent per character, one per unordered distinct pair
    for chi in sorted(elements, key=lambda e: e.name):
        phi = parameter([(chi, 4)])
        add(f"B-pr[{chi.name}]", "B", phi, designated(phi))
    for e1, e2 in itertools.combinations(sorted(elements, key=lambda e: e.name), 2):
        phi = parameter([(e1, 2), (e2, 2)])
        add(f"B-HPS[{e1.name},{e2.name}]", "B", phi, designated(phi))

    # P2 family: dihedral data with nontrivial quadratic central character
    for rho in sorted(cuspidal, key=lambda d: d.name):
        if rho.duality != "orthogonal" or not rho.dihedral:
            continue
        if rho.central_char in ("1", "trivial"):
            continue
        phi = parameter([(rho, 2)])
        add(f"P2[{rho.name}]", "P2", phi, designated(phi))

    # P1, principal family: Weil-type pi with parameter chi x S_2
    for chi in sorted(elements, key=lambda e: e.name):
        phi = parameter([(chi, 4)])
        for pi in sorted(mp2_weil, key=lambda w: w.name):
            if pi.chi != chi.name:
                continue
            labels = [1 if p.id in pi.s_places else 0 for p in places]
            add(f"P1-pr[{chi.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    # P1, Saito-Kurokawa family: pairs (chi, rho) with L(1/2, rho x chi) != 0
    for rho in sorted(cuspidal, key=lambda d: d.name):
        if rho.duality != "symplectic" or rho.gl_rank != 2:
            continue
        for chi in sorted(elements, key=lambda e: e.name):
            if not rho.l_half_nonzero.get(chi.name, False):
                continue
            phi = parameter([(rho, 1), (chi, 2)])
            irr = [p for p in places if rho_is_irreducible(rho.local[p.id])]
            for signs in itertools.product((1, -1), repeat=len(irr)):
                prod = 1
                for s in signs:
                    prod *= s
                if prod != rho.global_root:
                    continue
                eps1 = dict(zip((p.id for p in irr), signs))
                labels = [0b10 if eps1.get(p.id, 1) == -1 else 0 for p in places]
                sig = "".join(sign_str(eps1.get(p.id, 1)) for p in places)
                add(f"P1-SK[{chi.name};{rho.name};{sig}]", "P1", phi, at_labels(phi, labels))

    # P1, Howe-PS family: ordered pairs with chi_{1,v} != chi_{2,v} on S(pi)
    for e1 in sorted(elements, key=lambda e: e.name):
        for e2 in sorted(elements, key=lambda e: e.name):
            if e1.name == e2.name:
                continue
            for pi in sorted(mp2_weil, key=lambda w: w.name):
                if pi.chi != e2.name:
                    continue
                if any(
                    e1.local(p) == e2.local(p) for p in places if p.id in pi.s_places
                ):
                    continue
                phi = parameter([(e1, 2), (e2, 2)])
                # the sign sits on the generator of e2, in the canonical summand order of phi
                bit = 0b01 if phi.summands[0][0].name == e1.name else 0b10
                labels = [bit if p.id in pi.s_places else 0 for p in places]
                add(f"P1-HPS[{e1.name},{e2.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    return out
