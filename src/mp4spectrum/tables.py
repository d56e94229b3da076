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
    ParamType,
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoSteinberg,
)
from .scenario import SchemaError, _as_fraction, _as_list, _as_object, _as_sign, _require

HALF = Fraction(1, 2)


def char_from_query(q) -> QuadChar | TagChar:
    if isinstance(q, str):
        return QuadChar(q)
    q = _as_object(q, "$.query.chi")
    if "class" in q:
        return QuadChar(str(q["class"]))
    if "tag" in q:
        return TagChar(str(q["tag"]), bool(q.get("inverted", False)))
    raise SchemaError("$.query.chi", "expected {'class': ...} or {'tag': ...}")


def gl2_from_query(q) -> St2 | SC2 | RealD:
    path = "$.query.tau"
    q = _as_object(q, path)
    t = q.get("type")
    if t == "steinberg":
        return St2(str(_require(q, "class", path)))
    if t == "supercuspidal":
        return SC2(str(_require(q, "tag", path)))
    if t == "real-discrete":
        return RealD(_as_fraction(_require(q, "a", path), f"{path}.a"))
    raise SchemaError(path, f"unknown GL(2) datum {t!r}")


def descriptor_from_query(q):
    path = "$.query.inner"
    q = _as_object(q, path)
    t = q.get("type")
    if t == "weil-odd":
        return WeilOdd(str(_require(q, "class", path)))
    if t == "weil-even":
        return WeilEven(str(_require(q, "class", path)))
    if t == "mp-steinberg":
        return MpSt2(str(_require(q, "class", path)))
    if t == "mp2-member":
        return Mp2Member(str(_require(q, "tag", path)), _as_sign(q.get("eps", 1), f"{path}.eps"))
    if t == "gl2-steinberg":
        return St2(str(_require(q, "class", path)))
    if t == "so3-supercuspidal":
        return Opaque("sigma_sc", (str(_require(q, "tag", path)),))
    if t == "nu":
        return NuChar(str(_require(q, "class", path)))
    raise SchemaError(path, f"unknown inducing representation {t!r}")


def shimura_row_from_query(q) -> SCRow:
    kind = str(q.get("place_kind", "nonarch-odd-3mod4"))
    if kind not in KINDS:
        raise SchemaError("$.query.place_kind", f"unknown place kind {kind!r}")
    place = Place("v", kind)
    path = "$.query.row"
    row = _as_object(q.get("row"), path)

    def text(key):
        return str(_require(row, key, path))

    t = row.get("type")
    if t == "steinberg-S4":
        label = str(row.get("a", "1"))
        try:
            a = place.class_from_label(label)
        except ValueError as exc:
            raise SchemaError(f"{path}.a", str(exc)) from None
        return principal_shimura_row(place, a)
    if t == "orthogonal-S2":
        return orthogonal_shimura_row(text("tau"))
    if t == "4dim":
        shape = ShTempered((Piece4SC(text("tag")),))
        return shimura_row(place, shape)
    if t == "pair-supercuspidal":
        tags = _as_list(_require(row, "tags", path), f"{path}.tags")
        if len(tags) != 2:
            raise SchemaError(f"{path}.tags", f"expected two tags, got {tags!r}")
        t1, t2 = (str(x) for x in tags)
        shape = ShTempered(tuple(sorted((PieceSC(t1), PieceSC(t2)), key=repr)))
        return shimura_row(place, shape)
    if t == "double-supercuspidal":
        tag = text("tag")
        shape = ShTempered((PieceSC(tag), PieceSC(tag)))
        return shimura_row(place, shape)
    if t == "double-steinberg":
        a = text("a")
        shape = ShTempered((PieceSt(a), PieceSt(a)))
        return shimura_row(place, shape)
    if t == "steinberg-pair":
        a, b = text("a"), text("b")
        pieces = tuple(sorted((PieceSt(a), PieceSt(b)), key=repr))
        return shimura_row(place, ShTempered(pieces))
    if t == "sc-plus-S2":
        tag, a = text("tag"), text("a")
        eps0 = _as_sign(row.get("eps", 1), f"{path}.eps")
        tw = _as_sign(row.get("eps_twist", 1), f"{path}.eps_twist")
        pieces = tuple(sorted((PieceSC(tag), PieceSt(a)), key=repr))
        shape = ShTempered(pieces, ((tag, eps0, ((a, tw),)),))
        return shimura_row(place, shape)
    raise SchemaError("$.query.row.type", f"unknown row type {t!r}")


# ---------------------------------------------------------------------------
# atlas export


def _sgn(v: int) -> str:
    return "+" if v == 1 else "-"


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


def _packet_entries(lp: LocalParam) -> list:
    return [
        {
            "label": "(" + ",".join(_sgn(v) for v in e.label.values) + ")",
            "member": render(e.member),
            "in_l_packet": e.in_l_packet,
            "zero": e.is_zero,
        }
        for e in local_packet(lp)
    ]


def _sample_shapes(place: Place) -> list[tuple[str, LocalParam]]:
    """Representative local shapes of every family at one place kind."""
    out = []
    classes = place.square_classes()
    a0 = classes[0]
    a1 = classes[1] if len(classes) > 1 else classes[0]
    for c in classes:
        out.append((f"principal chi[{c.label}]", LocalParam(place, ParamType.PRINCIPAL, ShPrincipal(c))))
    if place.is_nonarch:
        sc = RhoIrreducibleSymplectic("rho0", -1, {c.label: 1 for c in classes})
        for c in classes:
            out.append(
                (f"SK sc twist chi[{c.label}]", LocalParam(place, ParamType.SAITO_KUROKAWA, ShSK("rho", sc, c)))
            )
            out.append(
                (
                    f"SK steinberg[{c.label}] twist chi[{c.label}]",
                    LocalParam(place, ParamType.SAITO_KUROKAWA,
                               ShSK("rho", RhoSteinberg(c.label, -1, {}), c)),
                )
            )
        out.append(
            (
                "soudry dihedral",
                LocalParam(place, ParamType.SOUDRY, ShSoudryIrreducible("rho", RhoDihedralSupercuspidal("tau"))),
            )
        )
    if place.is_real:
        for kappa in (1, 2):
            out.append(
                (
                    f"SK real-discrete kappa={kappa} twist chi[{a1.label}]",
                    LocalParam(place, ParamType.SAITO_KUROKAWA, ShSK("rho", RhoRealDiscrete(kappa), a1)),
                )
            )
            out.append(
                (
                    f"SK real-discrete kappa={kappa} twist chi[{a0.label}]",
                    LocalParam(place, ParamType.SAITO_KUROKAWA, ShSK("rho", RhoRealDiscrete(kappa), a0)),
                )
            )
        out.append(
            (
                "soudry real-orthogonal kappa=1",
                LocalParam(place, ParamType.SOUDRY, ShSoudryIrreducible("rho", RhoRealOrthogonalDiscrete(1))),
            )
        )
    ps = RhoPrincipalSeries("mu", Fraction(1, 4), 1)
    out.append(
        (f"SK principal-series twist chi[{a1.label}]",
         LocalParam(place, ParamType.SAITO_KUROKAWA, ShSK("rho", ps, a1)))
    )
    for x in classes:
        for y in classes:
            if x.label <= y.label:
                out.append(
                    (f"HPS chi[{x.label}], chi[{y.label}]",
                     LocalParam(place, ParamType.HOWE_PS, ShHPS(x, y)))
                )
    out.append(
        ("soudry non-quadratic", LocalParam(place, ParamType.SOUDRY, ShSoudryNonQuadratic("mu")))
    )
    return out


def _packet_tables() -> dict:
    out = {}
    for kind in KINDS:
        place = Place("v", kind)
        out[kind] = {name: _packet_entries(lp) for name, lp in _sample_shapes(place)}
    return out


def _row_json(row: SCRow) -> dict:
    return {
        "name": row.name,
        "entries": [
            {
                "label": "(" + ",".join(_sgn(v) for v in e.label) + ")",
                "mp": render(e.mp),
                "so_space": f"V2{_sgn(e.so_space)}",
                "so": render(e.so),
            }
            for e in row.entries
        ],
    }


def _shimura_tables() -> list:
    place = Place("v", "nonarch-odd-3mod4")
    rows = [
        principal_shimura_row(place, place.class_from_label("1")),
        principal_shimura_row(place, place.class_from_label("u")),
        orthogonal_shimura_row("tau"),
        shimura_row(place, ShTempered((Piece4SC("vr"),))),
        shimura_row(place, ShTempered(tuple(sorted((PieceSC("r1"), PieceSC("r2")), key=repr)))),
        shimura_row(place, ShTempered((PieceSC("r0"), PieceSC("r0")))),
        shimura_row(
            place,
            ShTempered(
                tuple(sorted((PieceSC("r0"), PieceSt("u")), key=repr)),
                (("r0", -1, (("u", 1),)),),
            ),
        ),
        shimura_row(
            place,
            ShTempered(
                tuple(sorted((PieceSC("r0"), PieceSt("1")), key=repr)),
                (("r0", -1, ()),),
            ),
        ),
        shimura_row(place, ShTempered(tuple(sorted((PieceSt("u"), PieceSt("p")), key=repr)))),
        shimura_row(place, ShTempered(tuple(sorted((PieceSt("1"), PieceSt("u")), key=repr)))),
        shimura_row(place, ShTempered((PieceSt("u"), PieceSt("u")))),
    ]
    return [_row_json(r) for r in rows]


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
                out[f"omega{_sgn(parity)}_W{n}_psi[{label}]"] = render(elementary_weil(n, parity, label))
    return out


def _ktype_tables() -> dict:
    ds = {}
    for a, b in ((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(3, 2))):
        for e1 in (1, -1):
            for e2 in (1, -1):
                if a == b and e1 != e2:
                    continue
                kt = lowest_kprime_catalog(DiscreteSeriesQuery(a, b, e1, e2))[0]
                ds[f"a={a},b={b},label=({_sgn(e1)},{_sgn(e2)})"] = [str(w) for w in kt.weights]
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
