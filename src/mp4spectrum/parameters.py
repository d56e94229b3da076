"""Cuspidal data, elliptic parameters for Mp(4), and the sign character.

An elliptic parameter is a formal unordered sum of summands phi_i x S_{d_i}
with sum n_i d_i = 4, pairwise-distinct summands, and the parity rule
d odd => symplectic, d even => orthogonal.  Exactly one of five shapes
matches every valid parameter:

  tempered          all d_i = 1
  Saito-Kurokawa    (rho x S_1) + (chi x S_2), rho a GL(2) datum with
                    trivial central character
  Howe-PS           (chi_1 x S_2) + (chi_2 x S_2), chi_1 != chi_2
  Soudry            rho x S_2, rho dihedral with nontrivial quadratic
                    central character
  principal         chi x S_4

The global component group is free over Z/2 with one generator per
summand.  The sign character eps~ is stored per type in the closed form
the classification produces: eps(1/2, phi_i) on tempered generators, the
two Saito-Kurokawa values eps(1/2,rho) eps(1/2,rho x chi) and
eps(1/2,rho x chi), and trivial for the other three families.

Root numbers and L(1/2) nonvanishing flags are scenario inputs; the only
computation done here is bookkeeping and the product-formula validation
of the declared local signs.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, Union

from .chargroups import ComponentGroup, F2Character
from .descriptors import HALF
from .fields import GlobalElement, Place, Sign, SquareClass, _shown, chi_minus_one
from .record import FrozenMap, Record, frozen_maps


class InvalidParameter(ValueError):
    pass


class MissingSignData(KeyError):
    pass


# ---------------------------------------------------------------------------
# local shapes of a GL(2) or GL(4) datum


class RhoIrreducibleSymplectic(Record):
    """Nonarchimedean supercuspidal 2-dimensional symplectic datum.

    eps is eps(1/2, rho_v); eps_twists maps a local square-class label c to
    eps(1/2, rho_v x chi_c).  Twists are keyed by local class, not by global
    element, since the twisted root number only sees the local class.
    """

    tag: str
    eps: Sign
    eps_twists: Mapping[str, Sign] = FrozenMap()
    __post_init__ = frozen_maps("eps_twists")


class RhoSteinberg(Record):
    """rho_v = chi_c x S_2 (twisted Steinberg), nonarchimedean."""

    label: str  # square-class label of c at the place
    eps: Sign
    eps_twists: Mapping[str, Sign] = FrozenMap()  # keyed by class label
    __post_init__ = frozen_maps("eps_twists")


class RhoPrincipalSeries(Record):
    """rho_v = chi|.|^s + chi^{-1}|.|^{-s}, |s| < 1/2, chi an opaque unitary tag.

    chi_parity is chi(-1); it determines the local root number chi(-1)
    and its quadratic twists, which the tag alone cannot.
    """

    chi: str
    s: Fraction
    chi_parity: Sign = 1

    def __post_init__(self) -> None:
        # |s| < 1/2 up to swapping the pair, so s >= 0 is a normal form
        if not (0 <= self.s < HALF):
            raise InvalidParameter(f"principal-series exponent must satisfy 0 <= s < 1/2, got {self.s}")


class RhoRealDiscrete(Record):
    """rho_v = D_{kappa - 1/2} at a real place (symplectic), kappa >= 1."""

    kappa: int

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise InvalidParameter("kappa must be a positive integer")


class RhoDihedralSupercuspidal(Record):
    """Nonarchimedean irreducible orthogonal (dihedral) datum."""

    tag: str


class RhoRealOrthogonalDiscrete(Record):
    """rho_v = D_kappa at a real place (orthogonal), kappa >= 1 an integer."""

    kappa: int

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise InvalidParameter("kappa must be a positive integer")


class RhoQuadraticPair(Record):
    """rho_v = chi_a + chi_b (orthogonal), named by square-class labels."""

    a: str
    b: str


class RhoReducibleOrthogonal(Record):
    """rho_v = chi + chi^{-1} with chi^2 != 1 (orthogonal, trivial determinant)."""

    chi: str


class Rho4Irreducible(Record):
    """4-dimensional irreducible symplectic localization of a GL(4) datum."""

    tag: str
    eps: Sign


class Rho4Split(Record):
    """Declared local decomposition of a GL(4) datum into 2-dim symplectic pieces."""

    parts: tuple


SymplecticShape = Union[RhoIrreducibleSymplectic, RhoSteinberg, RhoPrincipalSeries, RhoRealDiscrete]
OrthogonalShape = Union[
    RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete, RhoQuadraticPair, RhoReducibleOrthogonal
]
LocalRhoShape = Union[SymplecticShape, OrthogonalShape, Rho4Irreducible, Rho4Split]

_NONARCH_SYMPL = (RhoIrreducibleSymplectic, RhoSteinberg, RhoPrincipalSeries)
_REAL_SYMPL = (RhoRealDiscrete, RhoPrincipalSeries)


def shape_allowed(shape: LocalRhoShape, place: Place, duality: str, gl_rank: int) -> bool:
    """Whether ``shape`` may localize a GL(gl_rank) datum of ``duality`` at ``place``; gl4 shapes only on GL(4)."""
    if isinstance(shape, (Rho4Irreducible, Rho4Split)) != (gl_rank == 4):
        return False
    if isinstance(shape, Rho4Split):
        return all(shape_allowed(p, place, "symplectic", 2) for p in shape.parts)
    if isinstance(shape, Rho4Irreducible):
        return place.is_nonarch
    if duality == "symplectic":
        if place.is_nonarch:
            return isinstance(shape, _NONARCH_SYMPL)
        if place.is_real:
            return isinstance(shape, _REAL_SYMPL)
        return isinstance(shape, RhoPrincipalSeries)
    if place.is_nonarch:
        return isinstance(shape, (RhoDihedralSupercuspidal, RhoQuadraticPair, RhoReducibleOrthogonal))
    if place.is_real:
        return isinstance(shape, (RhoRealOrthogonalDiscrete, RhoQuadraticPair, RhoReducibleOrthogonal))
    return isinstance(shape, (RhoQuadraticPair, RhoReducibleOrthogonal))


def rho_is_irreducible(shape: LocalRhoShape) -> bool:
    return isinstance(
        shape,
        (
            RhoIrreducibleSymplectic,
            RhoSteinberg,
            RhoRealDiscrete,
            RhoDihedralSupercuspidal,
            RhoRealOrthogonalDiscrete,
            Rho4Irreducible,
        ),
    )


def local_eps(shape: LocalRhoShape, place: Place) -> Sign:
    """Local root number eps(1/2, rho_v), declared or forced by the shape."""
    if isinstance(shape, (RhoIrreducibleSymplectic, RhoSteinberg, Rho4Irreducible)):
        return shape.eps
    if isinstance(shape, RhoPrincipalSeries):
        return shape.chi_parity
    if isinstance(shape, RhoRealDiscrete):
        return -1 if shape.kappa % 2 else 1
    if isinstance(shape, Rho4Split):
        prod = 1
        for p in shape.parts:
            prod *= local_eps(p, place)
        return prod
    raise MissingSignData(f"no root-number data on shape {shape!r}")


def local_eps_twist(shape: LocalRhoShape, cls: SquareClass, place: Place) -> Sign:
    """eps(1/2, rho_v x chi_{c,v}) for the local square class c."""
    if cls.is_trivial:
        return local_eps(shape, place)
    if isinstance(shape, (RhoIrreducibleSymplectic, RhoSteinberg)):
        try:
            return shape.eps_twists[cls.label]
        except KeyError:
            raise MissingSignData(
                f"twisted root number for class {cls.label!r} missing on {shape!r}"
            ) from None
    if isinstance(shape, RhoPrincipalSeries):
        return shape.chi_parity * chi_minus_one(place, cls)
    if isinstance(shape, RhoRealDiscrete):
        # D_a tensor sgn = D_a, so quadratic twists do not move the sign
        return -1 if shape.kappa % 2 else 1
    if isinstance(shape, Rho4Split):
        prod = 1
        for p in shape.parts:
            prod *= local_eps_twist(p, cls, place)
        return prod
    raise MissingSignData(f"no twisted root-number data on shape {shape!r}")


# ---------------------------------------------------------------------------
# global cuspidal data and parameters


class CuspidalDatum(Record):
    """Self-dual cuspidal datum on GL(2) or GL(4), with its analytic inputs."""

    name: str
    gl_rank: int
    duality: str  # "symplectic" | "orthogonal"
    global_root: Sign
    local: Mapping[str, LocalRhoShape]  # keyed by place id
    twisted_roots: Mapping[str, Sign] = FrozenMap()
    l_half_nonzero: Mapping[str, bool] = FrozenMap()
    dihedral: bool = False
    central_char: str = "1"
    _frozen_maps = frozen_maps("local", "twisted_roots", "l_half_nonzero")

    def __post_init__(self) -> None:
        self._frozen_maps()
        if self.gl_rank not in (2, 4):
            raise InvalidParameter(f"gl_rank must be 2 or 4, got {self.gl_rank}")
        if self.duality not in ("symplectic", "orthogonal"):
            raise InvalidParameter(f"bad duality {_shown(self.duality)}")
        if self.gl_rank == 4 and self.duality != "symplectic":
            raise InvalidParameter("GL(4) data must be symplectic here")
        for a, nonzero in self.l_half_nonzero.items():
            if nonzero and self.twisted_roots.get(a, 1) != 1:
                raise InvalidParameter(
                    f"{self.name}: L(1/2, rho x chi_{a}) != 0 forces root number +1"
                )

    @property
    def trivial_central_char(self) -> bool:
        return self.central_char in ("1", "trivial")


class ParamType(enum.Enum):
    TEMPERED = "tempered"
    SAITO_KUROKAWA = "saito-kurokawa"
    HOWE_PS = "howe-piatetski-shapiro"
    SOUDRY = "soudry"
    PRINCIPAL = "principal"


class AParameter(Record):
    """Formal unordered sum of (datum, d) summands; kept in canonical order.

    ``classify`` keeps the parameter's type on the instance, outside the
    fields, so ``==``, ``hash`` and ``repr`` do not see it.
    """

    summands: tuple  # of (GlobalElement | CuspidalDatum, int)
    _ptype = None  # not a field: classify stores the type on the instance

    @staticmethod
    def of(summands) -> "AParameter":
        ordered = tuple(sorted(summands, key=lambda sd: (sd[1], sd[0].name)))
        return AParameter(ordered)

    def basis_labels(self) -> tuple[str, ...]:
        return tuple(f"{s.name}&S{d}" for s, d in self.summands)


def _validated_type(phi: AParameter) -> ParamType:
    """Check the summand rules and match the profile to the one type that fits."""
    total = 0
    seen = set()
    profile = []
    for datum, d in phi.summands:
        if d < 1:
            raise InvalidParameter("S_d index must be positive")
        element = isinstance(datum, GlobalElement)
        dim = 1 if element else datum.gl_rank
        total += dim * d
        key = (datum.name, d)
        if key in seen:
            raise InvalidParameter(f"repeated summand {key}")
        seen.add(key)
        dual = "orthogonal" if element else datum.duality
        if d % 2 == 1 and dual != "symplectic":
            raise InvalidParameter(f"{datum.name} x S_{d}: odd d needs a symplectic datum")
        if d % 2 == 0 and dual != "orthogonal":
            raise InvalidParameter(f"{datum.name} x S_{d}: even d needs an orthogonal datum")
        profile.append((dim, d))
    if total != 4:
        raise InvalidParameter(f"summand dimensions total {total}, need 4")
    profile.sort()
    if all(d == 1 for _, d in profile):
        return ParamType.TEMPERED
    if profile == [(1, 4)]:
        return ParamType.PRINCIPAL
    if profile == [(1, 2), (1, 2)]:
        return ParamType.HOWE_PS
    if profile == [(1, 2), (2, 1)]:
        return ParamType.SAITO_KUROKAWA
    if profile == [(2, 2)]:
        datum = phi.summands[0][0]
        assert isinstance(datum, CuspidalDatum)
        if not datum.dihedral:
            raise InvalidParameter("rho x S_2 requires a dihedral datum")
        if datum.trivial_central_char:
            raise InvalidParameter("rho x S_2 requires a nontrivial quadratic central character")
        return ParamType.SOUDRY
    raise InvalidParameter(f"no elliptic shape matches profile {profile}")


def classify(phi: AParameter) -> ParamType:
    """The unique matching type of a valid parameter, worked out once per instance.

    An invalid parameter stores nothing and raises on every call.
    """
    ptype = phi._ptype
    if ptype is None:
        ptype = _validated_type(phi)
        object.__setattr__(phi, "_ptype", ptype)
    return ptype


def component_group(phi: AParameter) -> ComponentGroup:
    """Free Z/2-module with one generator per summand (no global relations)."""
    classify(phi)
    return ComponentGroup(basis=phi.basis_labels(), relations=())


def _sk_parts(phi: AParameter) -> tuple[CuspidalDatum, GlobalElement]:
    (rho, _), (elem, _) = phi.summands  # canonical order puts d = 1 first
    assert isinstance(rho, CuspidalDatum) and isinstance(elem, GlobalElement)
    return rho, elem


def epsilon_tilde(phi: AParameter) -> F2Character:
    """The sign character cutting out the multiplicity-one adelic characters."""
    ptype = classify(phi)
    group = component_group(phi)
    if ptype is ParamType.TEMPERED:
        values = []
        for datum, _ in phi.summands:
            assert isinstance(datum, CuspidalDatum)
            values.append(datum.global_root)
        return group.character(values)
    if ptype is ParamType.SAITO_KUROKAWA:
        rho, elem = _sk_parts(phi)
        try:
            twisted = rho.twisted_roots[elem.name]
        except KeyError:
            raise MissingSignData(
                f"datum {rho.name!r} lacks the twisted root number by {elem.name!r}"
            ) from None
        return group.character((rho.global_root * twisted, twisted))
    return group.trivial_character()
