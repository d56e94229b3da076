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
"""

from __future__ import annotations

import itertools

from .descriptors import Desc, render, sign_str
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

    def rendered(self) -> dict:
        return {
            "name": self.name,
            "support": self.support,
            "family": self.family,
            "members": {pid: render(d) for pid, d in self.descriptor},
        }


def _entry(phi: AParameter, place: Place, label: tuple) -> Desc:
    lp, _, _ = localize(phi, place)
    for e in local_packet(lp):
        if e.label.values == label:
            return e.member
    raise KeyError(f"label {label} not found at {place.id}")


def _designated(phi: AParameter, place: Place) -> Desc:
    lp, _, _ = localize(phi, place)
    return designated_l_packet_member(lp)


def residual_spectrum(
    places: list[Place],
    elements: list[GlobalElement],
    cuspidal: list[CuspidalDatum],
    mp2_weil: list[Mp2CuspidalWeil],
) -> list[ResidualConstituent]:
    """All residual constituents the declared data generate, deterministically ordered."""
    places = sorted(places, key=lambda p: p.id)
    by_name = {e.name: e for e in elements}
    out: list[ResidualConstituent] = []

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
        phi = AParameter.of([(chi, 4)])
        members = [(p.id, _designated(phi, p)) for p in places]
        add(f"B-pr[{chi.name}]", "B", phi, members)
    for e1, e2 in itertools.combinations(sorted(elements, key=lambda e: e.name), 2):
        phi = AParameter.of([(e1, 2), (e2, 2)])
        members = [(p.id, _designated(phi, p)) for p in places]
        add(f"B-HPS[{e1.name},{e2.name}]", "B", phi, members)

    # P2 family: dihedral data with nontrivial quadratic central character
    for rho in sorted(cuspidal, key=lambda d: d.name):
        if rho.duality != "orthogonal" or not rho.dihedral:
            continue
        if rho.central_char in ("1", "trivial"):
            continue
        phi = AParameter.of([(rho, 2)])
        members = [(p.id, _designated(phi, p)) for p in places]
        add(f"P2[{rho.name}]", "P2", phi, members)

    # P1, principal family: Weil-type pi with parameter chi x S_2
    for chi in sorted(elements, key=lambda e: e.name):
        phi = AParameter.of([(chi, 4)])
        for pi in sorted(mp2_weil, key=lambda w: w.name):
            if pi.chi != chi.name:
                continue
            members = []
            for p in places:
                label = (-1,) if p.id in pi.s_places else (1,)
                members.append((p.id, _entry(phi, p, label)))
            add(f"P1-pr[{chi.name};{pi.name}]", "P1", phi, members)

    # P1, Saito-Kurokawa family: pairs (chi, rho) with L(1/2, rho x chi) != 0
    for rho in sorted(cuspidal, key=lambda d: d.name):
        if rho.duality != "symplectic" or rho.gl_rank != 2:
            continue
        for chi in sorted(elements, key=lambda e: e.name):
            if not rho.l_half_nonzero.get(chi.name, False):
                continue
            phi = AParameter.of([(rho, 1), (chi, 2)])
            irr = [p for p in places if rho_is_irreducible(rho.local[p.id])]
            for signs in itertools.product((1, -1), repeat=len(irr)):
                prod = 1
                for s in signs:
                    prod *= s
                if prod != rho.global_root:
                    continue
                eps1 = dict(zip((p.id for p in irr), signs))
                members = [(p.id, _entry(phi, p, (eps1.get(p.id, 1), 1))) for p in places]
                sig = "".join(sign_str(eps1.get(p.id, 1)) for p in places)
                add(f"P1-SK[{chi.name};{rho.name};{sig}]", "P1", phi, members)

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
                phi = AParameter.of([(e1, 2), (e2, 2)])
                lab1 = {p.id: 1 for p in places}
                lab2 = {p.id: (-1 if p.id in pi.s_places else 1) for p in places}
                members = []
                for p in places:
                    # label order follows the canonical summand order of phi
                    first, _ = phi.summands[0]
                    if first.name == e1.name:
                        label = (lab1[p.id], lab2[p.id])
                    else:
                        label = (lab2[p.id], lab1[p.id])
                    members.append((p.id, _entry(phi, p, label)))
                add(f"P1-HPS[{e1.name},{e2.name};{pi.name}]", "P1", phi, members)

    return out
