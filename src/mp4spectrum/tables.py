"""Query adapters and the packet-atlas export.

The CLI's correspond/reduce/ktype queries arrive as small JSON objects;
this module turns them into the internal term types.  export_all walks
the compiled tables (Hilbert pairings, packet families over every place
kind, correspondence rows, composition series, elementary Weil forms,
lowest K'-type catalogs) and renders them into one JSON document.
"""

from __future__ import annotations

from fractions import Fraction

from .descriptors import (
    Mp2Member,
    MpSt2,
    NuChar,
    Opaque,
    QuadChar,
    RealD,
    SC2,
    St2,
    TagChar,
    WeilEven,
    WeilOdd,
    elementary_weil,
    render,
    sign_label,
    sign_str,
)
from .fields import KINDS, Place, hilbert
from .ktypes import (
    DiscreteSeriesQuery,
    LanglandsBQuery,
    LanglandsP1Query,
    LanglandsP2Query,
    lowest_kprime_catalog,
)
from .localization import (
    LocalParam,
    Piece4SC,
    PieceSC,
    PieceSt,
    ShHPS,
    ShPrincipal,
    ShSK,
    ShSoudryIrreducible,
    ShSoudryNonQuadratic,
    ShTempered,
)
from .packets import (
    SCRow,
    local_packet,
    orthogonal_shimura_row,
    principal_shimura_row,
    reduce_mp4_p1,
    reduce_mp4_p2,
    shimura_row,
)
from .parameters import (
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoSteinberg,
)
from .record import FrozenMap
from .scenario import SchemaError, _as_bool, _as_fraction, _as_list, _as_object, _as_sign, _as_str, _require

HALF = Fraction(1, 2)


def _text(obj: dict, key: str, path: str) -> str:
    """The required string ``obj[key]`` of a query object at ``path``."""
    return _as_str(_require(obj, key, path), f"{path}.{key}")


def char_from_query(q) -> QuadChar | TagChar:
    if isinstance(q, str):
        return QuadChar(q)
    q = _as_object(q, "$.query.chi")
    if "class" in q:
        return QuadChar(_text(q, "class", "$.query.chi"))
    if "tag" in q:
        return TagChar(_text(q, "tag", "$.query.chi"), _as_bool(q.get("inverted", False), "$.query.chi.inverted"))
    raise SchemaError("$.query.chi", "expected {'class': ...} or {'tag': ...}")


def gl2_from_query(q) -> St2 | SC2 | RealD:
    path = "$.query.tau"
    q = _as_object(q, path)
    t = q.get("type")
    if t == "steinberg":
        return St2(_text(q, "class", path))
    if t == "supercuspidal":
        return SC2(_text(q, "tag", path))
    if t == "real-discrete":
        return RealD(_as_fraction(_require(q, "a", path), f"{path}.a"))
    raise SchemaError(path, f"unknown GL(2) datum {t!r}")


def descriptor_from_query(q):
    path = "$.query.inner"
    q = _as_object(q, path)
    t = q.get("type")
    if t == "weil-odd":
        return WeilOdd(_text(q, "class", path))
    if t == "weil-even":
        return WeilEven(_text(q, "class", path))
    if t == "mp-steinberg":
        return MpSt2(_text(q, "class", path))
    if t == "mp2-member":
        return Mp2Member(_text(q, "tag", path), _as_sign(q.get("eps", 1), f"{path}.eps"))
    if t == "gl2-steinberg":
        return St2(_text(q, "class", path))
    if t == "so3-supercuspidal":
        return Opaque("sigma_sc", (_text(q, "tag", path),))
    if t == "nu":
        return NuChar(_text(q, "class", path))
    raise SchemaError(path, f"unknown inducing representation {t!r}")


def shimura_row_from_query(q) -> SCRow:
    kind = _as_str(q.get("place_kind", "nonarch-odd-3mod4"), "$.query.place_kind")
    if kind not in KINDS:
        raise SchemaError("$.query.place_kind", f"unknown place kind {kind!r}")
    place = Place("v", kind)
    path = "$.query.row"
    row = _as_object(q.get("row"), path)

    def text(key):
        return _text(row, key, path)

    def square_class(key, default=None):
        """The square class at the place that the label ``row[key]`` names."""
        value = text(key) if default is None else _as_str(row.get(key, default), f"{path}.{key}")
        try:
            return place.class_from_label(value)
        except ValueError as exc:
            raise SchemaError(f"{path}.{key}", str(exc)) from None

    t = row.get("type")
    if t == "steinberg-S4":
        return principal_shimura_row(place, square_class("a", "1"))
    if t == "orthogonal-S2":
        return orthogonal_shimura_row(place, text("tau"))
    signs = FrozenMap()  # sign data of the supercuspidal constituent, if a row reads it
    if t == "4dim":
        pieces = (Piece4SC(text("tag")),)
    elif t == "pair-supercuspidal":
        tags = _as_list(_require(row, "tags", path), f"{path}.tags")
        if len(tags) != 2:
            raise SchemaError(f"{path}.tags", f"expected two tags, got {tags!r}")
        pieces = tuple(PieceSC(_as_str(x, f"{path}.tags[{i}]")) for i, x in enumerate(tags))
    elif t == "double-supercuspidal":
        pieces = (PieceSC(text("tag")),) * 2
    elif t == "double-steinberg":
        pieces = (PieceSt(square_class("a").label),) * 2
    elif t == "steinberg-pair":
        pieces = (PieceSt(square_class("a").label), PieceSt(square_class("b").label))
    elif t == "sc-plus-S2":
        tag, a = text("tag"), square_class("a").label
        eps0 = _as_sign(row.get("eps", 1), f"{path}.eps")
        tw = _as_sign(row.get("eps_twist", 1), f"{path}.eps_twist")
        pieces = (PieceSC(tag), PieceSt(a))
        signs = FrozenMap({tag: RhoIrreducibleSymplectic(tag, eps0, FrozenMap({a: tw}))})
    else:
        raise SchemaError("$.query.row.type", f"unknown row type {t!r}")
    return shimura_row(place, ShTempered(tuple(sorted(pieces, key=repr)), signs))


# ---------------------------------------------------------------------------
# atlas export


def _hilbert_tables() -> dict:
    out = {}
    for kind in KINDS:
        place = Place("v", kind)
        classes = place.square_classes()
        out[kind] = {
            "classes": [c.label for c in classes],
            "minus_one": place.minus_one().label,
            "table": {
                a.label: {b.label: hilbert(place, a, b) for b in classes} for a in classes
            },
        }
    return out


def _sample_shapes(place: Place) -> list[tuple[str, LocalParam]]:
    """Representative local shapes of every family at one place kind."""
    classes = place.square_classes()
    a0 = classes[0]
    a1 = classes[1] if len(classes) > 1 else classes[0]
    out = [(f"principal chi[{c.label}]", ShPrincipal(c)) for c in classes]
    if place.is_nonarch:
        sc = RhoIrreducibleSymplectic("rho0", -1, FrozenMap({c.label: 1 for c in classes}))
        for c in classes:
            out.append((f"SK sc twist chi[{c.label}]", ShSK("rho", sc, c)))
            st = RhoSteinberg(c.label, -1)
            out.append((f"SK steinberg[{c.label}] twist chi[{c.label}]", ShSK("rho", st, c)))
        out.append(("soudry dihedral", ShSoudryIrreducible("rho", RhoDihedralSupercuspidal("tau"))))
    if place.is_real:
        for kappa in (1, 2):
            rho = RhoRealDiscrete(kappa)
            out += [(f"SK real-discrete kappa={kappa} twist chi[{a.label}]", ShSK("rho", rho, a)) for a in (a1, a0)]
        out.append(("soudry real-orthogonal kappa=1", ShSoudryIrreducible("rho", RhoRealOrthogonalDiscrete(1))))
    ps = RhoPrincipalSeries("mu", Fraction(1, 4), 1)
    out.append((f"SK principal-series twist chi[{a1.label}]", ShSK("rho", ps, a1)))
    pairs = [(x, y) for x in classes for y in classes if x.label <= y.label]
    out += [(f"HPS chi[{x.label}], chi[{y.label}]", ShHPS(x, y)) for x, y in pairs]
    out.append(("soudry non-quadratic", ShSoudryNonQuadratic("mu")))
    return [(name, LocalParam(place, shape)) for name, shape in out]


def _packet_tables() -> dict:
    out = {}
    for kind in KINDS:
        place = Place("v", kind)
        out[kind] = {
            name: [e.rendered() for e in local_packet(lp)] for name, lp in _sample_shapes(place)
        }
    return out


# the correspondence rows of the atlas, as `correspond` queries at a
# nonarchimedean odd place with q = 3 mod 4
_SHIMURA_ROWS = (
    {"type": "steinberg-S4", "a": "1"},
    {"type": "steinberg-S4", "a": "u"},
    {"type": "orthogonal-S2", "tau": "tau"},
    {"type": "4dim", "tag": "vr"},
    {"type": "pair-supercuspidal", "tags": ["r1", "r2"]},
    {"type": "double-supercuspidal", "tag": "r0"},
    {"type": "sc-plus-S2", "tag": "r0", "a": "u", "eps": -1, "eps_twist": 1},
    {"type": "sc-plus-S2", "tag": "r0", "a": "1", "eps": -1},
    {"type": "steinberg-pair", "a": "u", "b": "p"},
    {"type": "steinberg-pair", "a": "1", "b": "u"},
    {"type": "double-steinberg", "a": "u"},
)


def _shimura_tables() -> list:
    rows = [shimura_row_from_query({"row": row}) for row in _SHIMURA_ROWS]
    return [{"name": r.name, "entries": [e.rendered() for e in r.entries]} for r in rows]


def _reducibility_tables() -> list:
    out = []
    inners = [
        ("mp2-member pi0^+", Mp2Member("pi0", 1)),
        ("weil-odd psi_u", WeilOdd("u")),
        ("weil-odd psi_1", WeilOdd("1")),
        ("weil-even psi_u", WeilEven("u")),
        ("weil-even psi_1", WeilEven("1")),
        ("mp-steinberg chi[u]", MpSt2("u")),
        ("mp-steinberg chi[1]", MpSt2("1")),
    ]
    for cl in ("1", "u"):
        for s in (Fraction(0), HALF, Fraction(3, 2)):
            for label, inner in inners:
                r = reduce_mp4_p1(QuadChar(cl), s, inner)
                out.append(
                    {
                        "induced": f"I_(P1,psi)(chi[{cl}]|.|^{s}, {label})",
                        "reducible": r.reducible,
                        "constituents": [render(c) for c in r.constituents],
                    }
                )
    for tau, omega in ((St2("1"), None), (St2("u"), None), (SC2("tau"), False), (SC2("tau0"), True)):
        for s in (Fraction(0), HALF, Fraction(1)):
            r = reduce_mp4_p2(tau, s, omega)
            out.append(
                {
                    "induced": f"I_(P2,psi)({render(tau) if hasattr(tau, 'label') else tau.tag}|det|^{s})",
                    "reducible": r.reducible,
                    "direct_sum": r.direct_sum,
                    "constituents": [render(c) for c in r.constituents],
                }
            )
    return out


def _elementary_weil_tables() -> dict:
    out = {}
    for n in (1, 2, 3):
        for parity in (1, -1):
            for label in ("1", "u"):
                out[f"omega{sign_str(parity)}_W{n}_psi[{label}]"] = render(elementary_weil(n, parity, label))
    return out


def _ktype_tables() -> dict:
    ds = {}
    for a, b in ((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(3, 2))):
        for e1 in (1, -1):
            for e2 in (1, -1):
                if a == b and e1 != e2:
                    continue
                kt = lowest_kprime_catalog(DiscreteSeriesQuery(a, b, e1, e2))[0]
                ds[f"a={a},b={b},label={sign_label((e1, e2))}"] = [str(w) for w in kt.weights]
    lang = {
        "J_P1(chi+, a=3/2, s=1)": lowest_kprime_catalog(LanglandsP1Query(1, Fraction(3, 2), Fraction(1))),
        "J_P1(chi-, a=3/2, s=1)": lowest_kprime_catalog(LanglandsP1Query(-1, Fraction(3, 2), Fraction(1))),
        "J_P2(a=2, s=1/2)": lowest_kprime_catalog(LanglandsP2Query(Fraction(2), HALF)),
        "J_P2(a=3/2, s=1/2)": lowest_kprime_catalog(LanglandsP2Query(Fraction(3, 2), HALF)),
        "J_B(+,+)": lowest_kprime_catalog(LanglandsBQuery(1, 1)),
        "J_B(+,-)": lowest_kprime_catalog(LanglandsBQuery(1, -1)),
        "J_B(-,-)": lowest_kprime_catalog(LanglandsBQuery(-1, -1)),
    }
    return {
        "discrete_series": ds,
        "langlands": {k: [[str(w) for w in kt.weights] for kt in v] for k, v in lang.items()},
    }


def export_all() -> dict:
    return {
        "hilbert": _hilbert_tables(),
        "packets": _packet_tables(),
        "shimura": _shimura_tables(),
        "reducibility": _reducibility_tables(),
        "elementary_weil": _elementary_weil_tables(),
        "ktypes": _ktype_tables(),
    }
