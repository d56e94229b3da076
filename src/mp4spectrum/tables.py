"""Query readers and the packet-atlas export.

The CLI's correspond/reduce/ktype queries arrive as small JSON objects;
this module reads every field of them, through scenario's ``_field`` and
``_as_*`` readers, so that each error names its JSON path.  A typed object
(``inner``, ``tau``, a catalog ``query``) is read through a table that maps
its ``type`` to a constructor and the constructor's fields; the reduce keys
and the O(p) x O(q) type are tables of fields too.  export_all walks
the compiled tables (Hilbert pairings, packet families over every place
kind, correspondence rows, composition series, elementary Weil forms,
lowest K'-type catalogs) and renders them into one JSON document.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .descriptors import (
    HALF,
    Mp2Member,
    MpSt2,
    NuChar,
    Opaque,
    QuadChar,
    RealD,
    SC2,
    St2,
    THREE_HALF,
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
    HARMONICS_RANK_CAP,
    DiscreteSeriesQuery,
    KTypeO,
    LanglandsBQuery,
    LanglandsP1Query,
    LanglandsP2Query,
    NotInHarmonics,
    degree_o,
    joint_harmonics,
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
    REDUCTIONS,
    ReductionResult,
    SCRow,
    local_packet,
    orthogonal_shimura_row,
    principal_shimura_row,
    reduce_mp4_p1,
    reduce_mp4_p2,
    reducibility_oracle,
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
from .scenario import (
    SchemaError,
    _as_bool,
    _as_class,
    _as_fraction,
    _as_int,
    _as_list,
    _as_object,
    _as_sign,
    _as_str,
    _field,
    _require,
    _shown,
    parse_json,
    read_file,
)


def read_query(text: str) -> dict:
    """The query object of a ``--query`` value: JSON text, or ``@`` and the path of a file holding it."""
    if text.startswith("@"):
        text = read_file(text[1:], "$.query")
    return _as_object(parse_json(text, "$.query"), "$.query")


def _args(q: dict, path: str, fields) -> list:
    """The value of each field ``(key[, reader[, default]])`` of ``q`` at ``path``; a string if no reader is named."""
    return [_field(q, key, path, *rest) for key, *rest in fields]


def _typed(q, path: str, table: dict, unknown: str, type_path: str = ""):
    """The term that the row of ``table`` named by the object's ``type`` builds: a constructor, then its fields."""
    t = _as_object(q, path).get("type")
    if type(t) is not str or t not in table:
        raise SchemaError(path + type_path, f"{unknown} {_shown(t)}")
    build, *fields = table[t]
    return build(*_args(q, path, fields))


def _int_list(value, path: str) -> tuple:
    return tuple(_as_int(x, f"{path}[{i}]") for i, x in enumerate(_as_list(value, path)))


def _char(q, path: str) -> QuadChar | TagChar:
    if isinstance(q, str):
        return QuadChar(q)
    if "class" in _as_object(q, path):
        return QuadChar(_field(q, "class", path))
    if "tag" in q:
        return TagChar(_field(q, "tag", path), _field(q, "inverted", path, _as_bool, False))
    raise SchemaError(path, "expected {'class': ...} or {'tag': ...}")


# the inducing representation of a P1 (or Q1) reduction, by its "type"
INNER = {
    "weil-odd": (WeilOdd, ("class",)),
    "weil-even": (WeilEven, ("class",)),
    "mp-steinberg": (MpSt2, ("class",)),
    "mp2-member": (Mp2Member, ("tag",), ("eps", _as_sign, 1)),
    "gl2-steinberg": (St2, ("class",)),
    "so3-supercuspidal": (lambda tag: Opaque("sigma_sc", (tag,)), ("tag",)),
    "nu": (NuChar, ("class",)),
}
# the GL(2) datum of a P2 (or Q2) reduction, by its "type"
GL2 = {
    "steinberg": (St2, ("class",)),
    "supercuspidal": (SC2, ("tag",)),
    "real-discrete": (RealD, ("a", _as_fraction)),
}
# a lowest K'-type catalog query, by its "type"
CATALOG = {
    "discrete": (DiscreteSeriesQuery, ("a", _as_fraction), ("b", _as_fraction), ("eps1", _as_sign), ("eps2", _as_sign)),
    "jp1": (LanglandsP1Query, ("chi_parity", _as_sign), ("a", _as_fraction), ("s", _as_fraction)),
    "jp2": (LanglandsP2Query, ("a", _as_fraction), ("s", _as_fraction)),
    "jb": (LanglandsBQuery, ("eps1", _as_sign), ("eps2", _as_sign)),
}
_inner = functools.partial(_typed, table=INNER, unknown="unknown inducing representation")
_gl2 = functools.partial(_typed, table=GL2, unknown="unknown GL(2) datum")
_catalog = functools.partial(_typed, table=CATALOG, unknown="unknown catalog query", type_path=".type")
# the reduce query's keys besides group and parabolic, each read if present, in this order
REDUCE = {"chi": _char, "s": _as_fraction, "inner": _inner, "tau": _gl2, "omega_trivial": _as_bool,
          "self_dual": _as_bool}
# the O(p) x O(q) type of a degree or harmonics query
KTYPE_O = (("p", _as_int), ("q", _as_int), ("a", _int_list, []), ("eps", _as_sign, 1), ("b", _int_list, []),
           ("delta", _as_sign, 1))


def reduction_from_query(q: dict) -> ReductionResult:
    """The composition series of the induced representation that a reduce query names."""
    group = _field(q, "group", "$.query", default="Mp4")
    parabolic = _field(q, "parabolic", "$.query", default="P1")
    data = {key: _field(q, key, "$.query", read) for key, read in REDUCE.items() if key in q}
    for key in REDUCTIONS.get((group, parabolic), (None, ()))[1]:
        _require(q, key, "$.query")
    return reducibility_oracle(group, parabolic, **data)


def ktype_from_query(q: dict) -> dict:
    """A K-type's degree, and with ``op`` harmonics its K'-type in the joint harmonics; or a lowest K'-type catalog."""
    op = q.get("op")
    if op == "catalog":
        result = lowest_kprime_catalog(_field(q, "query", "$.query", _catalog, {}))
        return {"lowest_kprime_types": [[str(w) for w in kt.weights] for kt in result]}
    if op != "degree" and op != "harmonics":
        raise SchemaError("$.query.op", f"unknown op {_shown(op)}; use degree, harmonics, or catalog")
    fields = _args(q, "$.query", KTYPE_O)
    try:
        mu = KTypeO(*fields)
    except ValueError as exc:  # signature and weights that name no O(p) x O(q) type
        raise SchemaError("$.query", str(exc)) from None
    data = {"degree": degree_o(mu)}
    if op == "harmonics":
        n = _field(q, "n", "$.query", _as_int, 2)
        if n > HARMONICS_RANK_CAP:
            raise NotInHarmonics(f"$.query.n: rank {n} is above the cap of {HARMONICS_RANK_CAP}")
        data["kprime"] = [str(w) for w in joint_harmonics(mu, n).weights]
    return data


def shimura_row_from_query(q: dict) -> SCRow:
    kind = _field(q, "place_kind", "$.query", default="nonarch-odd-3mod4")
    if kind not in KINDS:
        raise SchemaError("$.query.place_kind", f"unknown place kind {kind!r}")
    place = Place("v", kind)
    path = "$.query.row"
    row = _field(q, "row", "$.query", _as_object, None)
    t = row.get("type")
    if t == "steinberg-S4":
        return principal_shimura_row(place, _as_class(row, "a", place, path, "1"))
    if t == "orthogonal-S2":
        return orthogonal_shimura_row(place, _field(row, "tau", path))
    signs = FrozenMap()  # sign data of the supercuspidal constituent, if a row reads it
    if t == "4dim":
        pieces = (Piece4SC(_field(row, "tag", path)),)
    elif t == "pair-supercuspidal":
        tags = _field(row, "tags", path, _as_list)
        if len(tags) != 2:
            raise SchemaError(f"{path}.tags", f"expected two tags, got {_shown(tags)}")
        pieces = tuple(PieceSC(_as_str(x, f"{path}.tags[{i}]")) for i, x in enumerate(tags))
    elif t == "double-supercuspidal":
        pieces = (PieceSC(_field(row, "tag", path)),) * 2
    elif t == "double-steinberg":
        pieces = (PieceSt(_as_class(row, "a", place, path).label),) * 2
    elif t == "steinberg-pair":
        pieces = tuple(PieceSt(_as_class(row, key, place, path).label) for key in ("a", "b"))
    elif t == "sc-plus-S2":
        tag, a = _field(row, "tag", path), _as_class(row, "a", place, path).label
        eps0, tw = _field(row, "eps", path, _as_sign, 1), _field(row, "eps_twist", path, _as_sign, 1)
        pieces = (PieceSC(tag), PieceSt(a))
        signs = FrozenMap({tag: RhoIrreducibleSymplectic(tag, eps0, FrozenMap({a: tw}))})
    else:
        raise SchemaError("$.query.row.type", f"unknown row type {_shown(t)}")
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
        for s in (Fraction(0), HALF, THREE_HALF):
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
    for a, b in ((Fraction(5, 2), THREE_HALF), (THREE_HALF, THREE_HALF)):
        for e1 in (1, -1):
            for e2 in (1, -1):
                if a == b and e1 != e2:
                    continue
                kt = lowest_kprime_catalog(DiscreteSeriesQuery(a, b, e1, e2))[0]
                ds[f"a={a},b={b},label={sign_label((e1, e2))}"] = [str(w) for w in kt.weights]
    lang = {
        "J_P1(chi+, a=3/2, s=1)": lowest_kprime_catalog(LanglandsP1Query(1, THREE_HALF, Fraction(1))),
        "J_P1(chi-, a=3/2, s=1)": lowest_kprime_catalog(LanglandsP1Query(-1, THREE_HALF, Fraction(1))),
        "J_P2(a=2, s=1/2)": lowest_kprime_catalog(LanglandsP2Query(Fraction(2), HALF)),
        "J_P2(a=3/2, s=1/2)": lowest_kprime_catalog(LanglandsP2Query(THREE_HALF, HALF)),
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
