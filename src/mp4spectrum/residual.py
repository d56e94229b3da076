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

Each distinct parameter is built (so classified) once, keyed by the
identities of its summands and their d, which every loop hands over in
canonical order (the B loops' elements are sorted by name already).
Local work sees a place only through its kind: it is keyed by the kind,
the d of each summand of phi in canonical order, and each summand's key
part there (an element's class bits, or a small int interned per call
from a datum's name and local shape, so each datum local shape is hashed
once per place), read from per-summand columns computed once per call.
B and P2 read the designated member at every place, and so does P1 at
the all-plus character, whose packet entry equals it: a local key's
member is read from localization.local_shape at the first place reaching
it, and built once per packets.designated_key (labels, and a datum's
interned int: a Soudry split place and an HPS pair share one).  Only at
another character does P1 need a multiplicity.LocalData, from local_data
at the first place reaching the key; it reads the one packet entry the
character names, LocalData.entry, built once per local key and
character; no packet is built whole.  The CLI renders each shared member
object once, and encodes its JSON line once per place.  More than
multiplicity.ENUMERATE_LIMIT P1-SK constituents are refused early.
"""

from __future__ import annotations

import itertools
import math

from .descriptors import sign_str
from .fields import GlobalElement, Place
from .localization import LocalParam, local_shape
from .multiplicity import ENUMERATE_LIMIT, ScenarioTooLarge, local_data
from .packets import designated_key, designated_l_packet_member
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
    shared: dict = {}  # (id of each summand, d) -> the call's one instance of that parameter
    designated_at: dict = {}  # local key -> the designated member
    by_key: dict = {}  # local key -> LocalData, for the labels other than all-plus
    members: dict = {}  # designated key -> the designated member
    kinds = [p.kind for p in places]
    all_plus = [0] * len(places)
    columns: dict = {}  # id of an element or datum -> its key part at each place
    interned: dict = {}  # (datum name, datum local shape) -> a small int

    def parameter(*summands):
        """The shared instance, so that each parameter is classified once; summands in canonical order."""
        key = tuple((id(s), d) for s, d in summands)
        return shared.get(key) or shared.setdefault(key, AParameter(summands))

    def column(s):
        """s's key part at each place: an element's class bits, or a datum's interned name and local shape."""
        col = columns.get(id(s))
        if col is None:
            if type(s) is CuspidalDatum:
                col = [interned.setdefault((s.name, s.local[p.id]), len(interned)) for p in places]
            else:
                col = [s.classes[p.id].bits for p in places]
            columns[id(s)] = col
        return col

    def member(phi, place, key, datum):
        """The designated member at a local key (datum: phi's first summand's key part), one per designated key."""
        lp = LocalParam(place, local_shape(phi, place)[0])
        dkey = designated_key(lp, datum)
        m = designated_at[key] = members.get(dkey) or members.setdefault(dkey, designated_l_packet_member(lp))
        return m

    def at_labels(phi, labels=all_plus):
        """The packet member at each place's label, a character mask (one per place; by default all 0).

        Label 0, the all-plus character, reads the designated member, which
        equals the packet's all-plus entry; another label reads its one
        entry, built once per local key.
        """
        cols = [column(s) for s, _ in phi.summands]
        keys = zip(kinds, itertools.repeat(tuple(d for _, d in phi.summands)), *cols)
        out = []
        for p, key, datum, label in zip(places, keys, cols[0], labels):
            if label:
                local = by_key.get(key) or by_key.setdefault(key, local_data(phi, p))
                out.append((p.id, local.entry(label).member))
            else:
                out.append((p.id, designated_at.get(key) or member(phi, p, key, datum)))
        return tuple(out)

    def add(name, support, phi, descriptor):
        out.append(ResidualConstituent(name, support, classify(phi).value, descriptor, phi))

    # Borel family: one constituent per character, one per unordered distinct pair
    for chi in elements:
        phi = parameter((chi, 4))
        add(f"B-pr[{chi.name}]", "B", phi, at_labels(phi))
    for e1, e2 in itertools.combinations(elements, 2):
        phi = parameter((e1, 2), (e2, 2))  # elements are sorted by name
        add(f"B-HPS[{e1.name},{e2.name}]", "B", phi, at_labels(phi))

    # P2 family: dihedral data with nontrivial quadratic central character
    for rho in cuspidal:
        if rho.duality != "orthogonal" or not rho.dihedral or rho.trivial_central_char:
            continue
        phi = parameter((rho, 2))
        add(f"P2[{rho.name}]", "P2", phi, at_labels(phi))

    # P1, principal family: Weil-type pi with parameter chi x S_2
    for chi in elements:
        phi = parameter((chi, 4))
        for pi in mp2_weil:
            if pi.chi != chi.name:
                continue
            labels = [1 if p.id in pi.s_places else 0 for p in places]
            add(f"P1-pr[{chi.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    # P1, Saito-Kurokawa family: pairs (chi, rho) with L(1/2, rho x chi) != 0
    for rho, chi, irr in sk_pairs:
        phi = parameter((rho, 1), (chi, 2))
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
                first, second = (e1, e2) if e1.name < e2.name else (e2, e1)
                phi = parameter((first, 2), (second, 2))
                # the sign sits on the generator of e2, in the canonical summand order of phi
                bit = 0b01 if first is e1 else 0b10
                labels = [bit if p.id in pi.s_places else 0 for p in places]
                add(f"P1-HPS[{e1.name},{e2.name};{pi.name}]", "P1", phi, at_labels(phi, labels))

    return out
