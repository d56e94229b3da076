"""Scenario files: schema, construction, and the validation pipeline.

A scenario is a closed world: a finite set of places, global square-class
elements defined at every place (with "1" and "-1" built in), cuspidal
data with declared local shapes and root numbers, rank-1 Weil-type
cuspidal representations, and one parameter built from these.

Validation order: schema -> reciprocity -> cuspidal sign products and
shape compatibility -> parameter invariants.  Schema problems carry a
JSON path; validation failures name the offending pair or datum.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from typing import Any, Mapping

from .fields import (
    KINDS,
    GlobalElement,
    Place,
    ReciprocityReport,
    SquareClass,
    _shown,
    minus_one_element,
    trivial_element,
    validate_reciprocity,
)
from .parameters import (
    AParameter,
    CuspidalDatum,
    InvalidParameter,
    LocalRhoShape,
    MissingSignData,
    Rho4Irreducible,
    Rho4Split,
    RhoDihedralSupercuspidal,
    RhoIrreducibleSymplectic,
    RhoPrincipalSeries,
    RhoQuadraticPair,
    RhoRealDiscrete,
    RhoRealOrthogonalDiscrete,
    RhoReducibleOrthogonal,
    RhoSteinberg,
    classify,
    local_eps,
    local_eps_twist,
    shape_allowed,
)
from .record import FrozenMap, Record
from .residual import Mp2CuspidalWeil

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioValidationError(ValueError):
    pass


class Scenario(Record):
    places: tuple[Place, ...]
    elements: tuple[GlobalElement, ...]  # includes the built-ins "1" and "-1"
    cuspidal: tuple[CuspidalDatum, ...]
    mp2_weil: tuple[Mp2CuspidalWeil, ...]
    parameter: AParameter | None

    def element(self, name: str) -> GlobalElement:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)

    def place(self, place_id: str) -> Place:
        for p in self.places:
            if p.id == place_id:
                return p
        raise KeyError(place_id)

    def reciprocity_report(self) -> ReciprocityReport:
        return validate_reciprocity(self.places, self.elements)

    def validate(self) -> ReciprocityReport:
        """Run every check in order; returns the (passing) reciprocity report."""
        report = self.reciprocity_report()
        if not report.ok:
            a, b, prod = report.violation
            raise ScenarioValidationError(
                f"reciprocity fails for pair ({a}, {b}): product = {prod:+d}"
            )
        for datum in self.cuspidal:
            self._validate_datum(datum)
        names = {e.name for e in self.elements}
        pids = {p.id for p in self.places}
        for w in self.mp2_weil:
            w.validate(pids, names)
        if self.parameter is not None:
            classify(self.parameter)
        return report

    def _validate_datum(self, datum: CuspidalDatum) -> None:
        for p in self.places:
            if p.id not in datum.local:
                raise ScenarioValidationError(f"datum {_shown(datum.name)} has no shape at place {_shown(p.id)}")
            shape = datum.local[p.id]
            if not shape_allowed(shape, p, datum.duality, datum.gl_rank):
                raise ScenarioValidationError(
                    f"datum {_shown(datum.name)}: shape {type(shape).__name__} not allowed "
                    f"at {p.kind} place {_shown(p.id)} with {datum.duality} duality on GL({datum.gl_rank})"
                )
        if datum.duality == "orthogonal":
            self._validate_central_char(datum)
            return
        prod = 1
        for p in self.places:
            prod *= local_eps(datum.local[p.id], p)
        if prod != datum.global_root:
            raise ScenarioValidationError(
                f"datum {_shown(datum.name)}: local root numbers multiply to {prod:+d}, "
                f"declared global root is {datum.global_root:+d}"
            )
        for ename, sign in datum.twisted_roots.items():
            elem = self.element(ename)
            tprod = 1
            for p in self.places:
                try:
                    tprod *= local_eps_twist(datum.local[p.id], elem.local(p), p)
                except MissingSignData as exc:
                    raise ScenarioValidationError(f"datum {_shown(datum.name)} at {_shown(p.id)}: {exc}") from exc
            if tprod != sign:
                raise ScenarioValidationError(
                    f"datum {_shown(datum.name)}: twisted local roots by {_shown(ename)} multiply to "
                    f"{tprod:+d}, declared {sign:+d}"
                )

    def _validate_central_char(self, datum: CuspidalDatum) -> None:
        cc_elem = None if datum.trivial_central_char else self.element(datum.central_char)
        for p in self.places:
            shape = datum.local[p.id]
            cls = cc_elem.local(p) if cc_elem is not None else p.trivial_class()
            if isinstance(shape, (RhoDihedralSupercuspidal, RhoRealOrthogonalDiscrete)):
                if cls.is_trivial:
                    raise ScenarioValidationError(
                        f"datum {_shown(datum.name)} at {_shown(p.id)}: an irreducible orthogonal shape "
                        "needs a locally nontrivial central character"
                    )
            elif isinstance(shape, RhoQuadraticPair):
                prod = p.class_from_label(shape.a) * p.class_from_label(shape.b)
                if prod != cls:
                    raise ScenarioValidationError(
                        f"datum {_shown(datum.name)} at {_shown(p.id)}: chi_a chi_b = {prod.label!r} "
                        f"does not match the central character class {cls.label!r}"
                    )
            elif isinstance(shape, RhoReducibleOrthogonal):
                if not cls.is_trivial:
                    raise ScenarioValidationError(
                        f"datum {_shown(datum.name)} at {_shown(p.id)}: chi + chi^-1 has trivial "
                        "determinant but the central character is locally nontrivial"
                    )


# ---------------------------------------------------------------------------
# JSON loading


_REQUIRED = object()


def _require(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _as_sign(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        raise SchemaError(path, f"expected +1 or -1, got {_shown(value)}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected true or false, got {_shown(value)}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {_shown(value)}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {_shown(value)}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {_shown(value)}")
    return value


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {_shown(value)}")
    return value


def _field(obj: Mapping, key: str, path: str, as_value=_as_str, default: Any = _REQUIRED) -> Any:
    """``as_value`` of ``obj[key]`` at its path, or of ``default`` when the key is absent and one is given."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return as_value(value, f"{path}.{key}")


def _require_element(name: str, names: set, path: str) -> None:
    if name not in names:
        raise SchemaError(path, f"unknown element {_shown(name)}")


# digits a rational's numerator and denominator keep free under the digits str() prints: the catalog's arithmetic
# (a + 1/2, a - 1, 2a) adds at most one digit to either, and its weights must still print
DIGIT_MARGIN = 8


def _as_fraction(value: Any, path: str) -> Fraction:
    text = str(value)
    # len(text), plus the exponent if any, bounds the digits of the value, which is refused before Fraction builds
    # it (1e100000000 takes seconds); a long text is refused before int() reads its exponent
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    limit = (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits) - DIGIT_MARGIN
    if len(text) > limit or exponent.isdecimal() and len(text) + int(exponent) > limit:
        raise SchemaError(path, f"{_shown(value)} may have more than {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational number: {_shown(value)}") from None


def _as_map(value: Any, path: str, as_value=_as_sign) -> FrozenMap:
    """An object whose every value passes ``as_value``, frozen."""
    raw = _as_object(value, path)
    return FrozenMap({str(k): as_value(v, f"{path}.{k}") for k, v in raw.items()})


_as_flags = functools.partial(_as_map, as_value=_as_bool)


def _as_class(obj: dict, key: str, place: Place, path: str, default: Any = _REQUIRED) -> SquareClass:
    """The square class at the place that the label ``obj[key]``, or ``default``, names."""
    label = _field(obj, key, path, default=default)
    try:
        return place.class_from_label(label)
    except ValueError as exc:
        raise SchemaError(f"{path}.{key}", str(exc)) from None


def _parse_shape(obj: Any, place: Place, path: str, part: bool = False) -> LocalRhoShape:
    """The shape at ``path``; a ``part`` of a gl4-split is a 2-dim shape, refused before any recursion."""
    kind = _require(_as_object(obj, path), "shape", path)
    if part and kind in ("gl4-irreducible", "gl4-split"):
        raise SchemaError(path, f"a gl4-split part must be a 2-dim shape, not {kind}")
    try:
        if kind in ("irreducible-symplectic", "steinberg"):
            twists = _field(obj, "eps_twists", path, _as_map, {})
            if kind == "steinberg":
                label = _as_class(obj, "class", place, path).label
                return RhoSteinberg(label, _field(obj, "eps", path, _as_sign), twists)
            return RhoIrreducibleSymplectic(_field(obj, "tag", path), _field(obj, "eps", path, _as_sign), twists)
        if kind == "principal-series":
            return RhoPrincipalSeries(
                chi=_field(obj, "chi", path),
                s=_field(obj, "s", path, _as_fraction, 0),
                chi_parity=_field(obj, "chi_parity", path, _as_sign, 1),
            )
        if kind == "real-discrete":
            return RhoRealDiscrete(_field(obj, "kappa", path, _as_int))
        if kind == "dihedral-supercuspidal":
            return RhoDihedralSupercuspidal(_field(obj, "tag", path))
        if kind == "real-orthogonal-discrete":
            return RhoRealOrthogonalDiscrete(_field(obj, "kappa", path, _as_int))
        if kind == "quadratic-pair":
            return RhoQuadraticPair(a=_as_class(obj, "a", place, path).label, b=_as_class(obj, "b", place, path).label)
        if kind == "reducible-orthogonal":
            return RhoReducibleOrthogonal(_field(obj, "chi", path))
        if kind == "gl4-irreducible":
            return Rho4Irreducible(_field(obj, "tag", path), _field(obj, "eps", path, _as_sign))
        if kind == "gl4-split":
            parts = _require(obj, "parts", path)
            if not isinstance(parts, list) or len(parts) != 2:
                raise SchemaError(f"{path}.parts", "expected a list of two 2-dim shapes")
            return Rho4Split(tuple(_parse_shape(s, place, f"{path}.parts[{i}]", True) for i, s in enumerate(parts)))
    except InvalidParameter as exc:
        raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.shape", f"unknown shape kind {_shown(kind)}")


def scenario_from_dict(data: Any) -> Scenario:
    version = _as_object(data, "$").get("version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise SchemaError("$.version", f"unsupported schema version {_shown(version)}")

    places_raw = _require(data, "places", "$")
    if not isinstance(places_raw, list) or not places_raw:
        raise SchemaError("$.places", "expected a nonempty list")
    places: list[Place] = []
    for i, praw in enumerate(places_raw):
        path = f"$.places[{i}]"
        pid = _field(_as_object(praw, path), "id", path)
        kind = _field(praw, "kind", path)
        if kind not in KINDS:
            raise SchemaError(f"{path}.kind", f"unknown kind {_shown(kind)}; one of {sorted(KINDS)}")
        if any(p.id == pid for p in places):
            raise SchemaError(f"{path}.id", f"duplicate place id {_shown(pid)}")
        places.append(Place(pid, kind))

    elements: list[GlobalElement] = [trivial_element(places), minus_one_element(places)]
    squares: dict = {}  # (place id, label) -> its SquareClass, one per load
    for i, eraw in enumerate(_field(data, "elements", "$", _as_list, [])):
        path = f"$.elements[{i}]"
        name = _field(_as_object(eraw, path), "name", path)
        if any(e.name == name for e in elements):
            raise SchemaError(f"{path}.name", f"element {_shown(name)} already defined")
        classes_raw = _field(eraw, "classes", path, _as_object)
        classes = {}
        for p in places:
            label = classes_raw.get(p.id)
            cls = squares.get((p.id, label)) if type(label) is str else None
            if cls is None:
                if p.id not in classes_raw:
                    raise SchemaError(f"{path}.classes", f"no class at place {_shown(p.id)} (closed world)")
                cls = squares[p.id, label] = _as_class(classes_raw, p.id, p, f"{path}.classes")
            classes[p.id] = cls
        extra = set(classes_raw) - {p.id for p in places}
        if extra:
            raise SchemaError(f"{path}.classes", f"unknown places {_shown(sorted(extra))}")
        elements.append(GlobalElement(name, FrozenMap(classes)))

    cuspidal: list[CuspidalDatum] = []
    element_names = {e.name for e in elements}
    by_id = {p.id: p for p in places}
    for i, draw in enumerate(_field(data, "cuspidal", "$", _as_list, [])):
        path = f"$.cuspidal[{i}]"
        name = _field(_as_object(draw, path), "name", path)
        local = {}
        for pid, sraw in _field(draw, "local", path, _as_object).items():
            if pid not in by_id:
                raise SchemaError(f"{path}.local.{pid}", "unknown place")
            local[pid] = _parse_shape(sraw, by_id[pid], f"{path}.local.{pid}")
        twisted_raw = _field(draw, "twisted_roots", path, _as_object, {})
        for k in twisted_raw:
            _require_element(k, element_names, f"{path}.twisted_roots.{k}")
        central_char = _field(draw, "central_char", path, default="1")
        if central_char != "trivial":
            _require_element(central_char, element_names, f"{path}.central_char")
        try:
            datum = CuspidalDatum(
                name=name,
                gl_rank=_field(draw, "gl_rank", path, _as_int, 2),
                duality=_field(draw, "duality", path),
                global_root=_field(draw, "global_root", path, _as_sign, 1),
                local=FrozenMap(local),
                twisted_roots=_as_map(twisted_raw, f"{path}.twisted_roots"),
                l_half_nonzero=_field(draw, "l_half_nonzero", path, _as_flags, {}),
                dihedral=_field(draw, "dihedral", path, _as_bool, False),
                central_char=central_char,
            )
        except InvalidParameter as exc:
            raise SchemaError(path, str(exc)) from exc
        if any(d.name == datum.name for d in cuspidal):
            raise SchemaError(f"{path}.name", f"datum {_shown(name)} already defined")
        cuspidal.append(datum)

    mp2 = []
    for i, wraw in enumerate(_field(data, "mp2_weil", "$", _as_list, [])):
        path = f"$.mp2_weil[{i}]"
        name = _field(_as_object(wraw, path), "name", path)
        if any(w.name == name for w in mp2):
            raise SchemaError(f"{path}.name", f"mp2_weil {_shown(name)} already defined")
        chi = _field(wraw, "chi", path)
        s_places: list = []
        for j, x in enumerate(_field(wraw, "s_places", path, _as_list)):
            pid = _as_str(x, f"{path}.s_places[{j}]")
            if pid in s_places:
                raise SchemaError(f"{path}.s_places[{j}]", f"place {_shown(pid)} listed twice")
            s_places.append(pid)
        mp2.append(Mp2CuspidalWeil(name=name, chi=chi, s_places=frozenset(s_places)))

    parameter = None
    if data.get("parameter") is not None:
        path = "$.parameter"
        summands = []
        for i, item in enumerate(_field(_as_object(data["parameter"], path), "summands", path, _as_list)):
            ipath = f"{path}.summands[{i}]"
            d = item[1] if isinstance(item, (list, tuple)) and len(item) == 2 else None
            if isinstance(d, bool) or not isinstance(d, int):
                raise SchemaError(ipath, "expected [name, d]")
            name = _as_str(item[0], f"{ipath}[0]")
            datum = next((x for x in (*cuspidal, *elements) if x.name == name), None)
            if datum is None:
                raise SchemaError(ipath, f"unknown summand {_shown(name)}")
            summands.append((datum, d))
        parameter = AParameter.of(summands)

    return Scenario(tuple(places), tuple(elements), tuple(cuspidal), tuple(mp2), parameter)


def read_file(path: str, json_path: str = "$") -> str:
    """The text of a UTF-8 file; one that cannot be opened or decoded is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(json_path, f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from None


def parse_json(text: str, path: str) -> Any:
    """The value of a JSON text; one that does not parse, or nests too deeply to, is a SchemaError at path."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError(path, "JSON nested too deeply to parse") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than int() reads
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(parse_json(read_file(path), "$"))
