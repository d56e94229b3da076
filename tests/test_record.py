"""The record base behaves as the dataclass it replaced, class by class.

Every record class of the package is compared with a frozen, unordered
``dataclasses`` twin built here from the same fields and methods: ``repr``
text, equality, hashing, frozenness and ``__post_init__``; like the twin,
no record orders, and the base takes no ``order`` class keyword.
Defaults are shared immutable values, so every one of them hashes, a map
default shared by two records refuses every change, and the values loaded
from every fixture hash too.  ``FrozenMap``,
the mapping inside records, is a dict that hashes and cannot change.  A
last test checks that importing the CLI loads none of ``dataclasses``,
``inspect``, ``argparse`` and ``gettext``, and one that a class's methods
are built on first use, which is what makes start-up cheap.
"""

import dataclasses
import importlib
import itertools
import json
import operator
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import mp4spectrum
from mp4spectrum.localization import localize
from mp4spectrum.record import _MISSING, FrozenMap, Record
from mp4spectrum.scenario import load_scenario

from golden_calls import FIXTURE_NAMES

MODULES = [importlib.import_module(f"mp4spectrum.{m.name}") for m in pkgutil.iter_modules(mp4spectrum.__path__)]

RECORD_CLASSES = sorted(
    {
        obj
        for mod in MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    },
    key=lambda c: (c.__module__, c.__qualname__),
)

# names the record base sets on each class; the twin gets dataclass's own
RECORD_ATTRS = {
    "__module__", "__qualname__", "__doc__", "__dict__", "__weakref__", "__annotations__",
    "__init__", "__setattr__", "__delattr__", "__hash__", "__record_fields__", "__repr__", "__eq__",
}


def _place():
    from mp4spectrum.fields import Place

    return Place("v1", "nonarch-odd-3mod4")


# valid arguments, every field given, for the classes whose __post_init__
# checks them; every other class takes any values
SAMPLES = {
    "Place": lambda: [("v1", "real"), ("v1", "nonarch-dyadic")],
    "SquareClass": lambda: [(_place(), (0, 1)), (_place(), (1, 0))],
    "KTypeO": lambda: [(2, 1, (0,), -1, (), -1), (2, 1, (3,), 1, (), 1)],
    "KTypeMp": lambda: [((Fraction(3, 2), Fraction(1, 2)),), ((Fraction(1, 2), Fraction(-1, 2)),)],
    "RhoPrincipalSeries": lambda: [("chi", Fraction(1, 4), -1), ("chi", Fraction(0), 1)],
    "RhoRealDiscrete": lambda: [(2,), (3,)],
    "RhoRealOrthogonalDiscrete": lambda: [(1,), (4,)],
    "GlobalElement": lambda: [("a", FrozenMap({"v1": "class"})), ("b", FrozenMap())],
    "RhoIrreducibleSymplectic": lambda: [("sc", 1, FrozenMap({"u": -1})), ("sd", -1, FrozenMap())],
    "RhoSteinberg": lambda: [("u", -1, FrozenMap({"1": 1})), ("1", 1, FrozenMap())],
    "ShTempered": lambda: [(("piece",), FrozenMap({"t": "sign data"})), ((), FrozenMap())],
    "CuspidalDatum": lambda: [
        ("rho", 2, "symplectic", 1, FrozenMap({"v1": "shape"}), FrozenMap(), FrozenMap(), False, "1"),
        ("rho", 4, "symplectic", -1, FrozenMap({"v1": "shape"}), FrozenMap({"t": -1}), FrozenMap({"t": False}), True, "e"),
    ],
}


def _fields(cls):
    return cls.__record_fields__


def _default(cls, name):
    return getattr(cls, name, _MISSING)


def _required(cls):
    return [name for name in _fields(cls) if _default(cls, name) is _MISSING]


def _samples(cls):
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]()
    n = len(_fields(cls))
    if n < 2:
        return [("x",) * n, ("y",) * n]
    # the two differ in the first field and in the last
    return [("x",) * n, ("w",) + ("x",) * (n - 2) + ("y",)]


def _twin(cls):
    """The frozen dataclass with the same fields, given in full by every test here.

    Defaults are left out: the Python 3.10 dataclass refuses any dict
    default, a FrozenMap included.  test_every_field_default_is_hashable
    checks the defaults of the records themselves.
    """
    names = _fields(cls)
    namespace = {k: v for k, v in vars(cls).items() if k not in RECORD_ATTRS and k not in names}
    return dataclasses.make_dataclass(
        cls.__name__, [(name, "object") for name in names], namespace=namespace, frozen=True, order=False
    )


def _other(cls):
    """A record class with the same fields under another name."""
    ns = {"__annotations__": {name: "object" for name in _fields(cls)}}
    return type("Other", (Record,), ns)


def _values(obj, cls):
    return tuple(getattr(obj, name) for name in _fields(cls))


def _hash(obj):
    """hash(obj), or TypeError for a field value that cannot be hashed."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_module_class_is_a_record():
    assert RECORD_CLASSES
    assert not any(dataclasses.is_dataclass(obj) for mod in MODULES for obj in vars(mod).values())


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
def test_record_matches_dataclass_twin(cls):
    assert cls.__name__ in SAMPLES or "__post_init__" not in vars(cls)
    twin = _twin(cls)
    samples = _samples(cls)
    names = _fields(cls)
    for vals in samples:
        r, t = cls(*vals), twin(*vals)
        assert repr(r) == repr(t)
        assert _values(r, cls) == _values(t, cls)
        assert cls(**dict(zip(names, vals))) == r
        assert r == cls(*vals) and not (r != cls(*vals))
        assert r == r and not (r != r)  # an instance equals itself without reading its fields
        assert r != t and t != r
        assert r != _other(cls)(*_values(r, cls))
        assert r.__eq__(t) is NotImplemented and r.__eq__(_other(cls)(*_values(r, cls))) is NotImplemented
        assert _hash(r) == _hash(_values(r, cls)) == _hash(t)
        attr = names[0] if names else "x"
        with pytest.raises(AttributeError):
            setattr(r, attr, 0)
        with pytest.raises(AttributeError):
            delattr(r, attr)
        with pytest.raises(TypeError):
            cls(*_values(r, cls), "one too many")
    for a, b in itertools.product(samples, repeat=2):
        ra, rb, ta, tb = cls(*a), cls(*b), twin(*a), twin(*b)
        assert (ra == rb) == (ta == tb)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(ra, rb)


def test_record_takes_no_order_keyword():
    ns = {"__annotations__": {"a": "object"}}
    with pytest.raises(TypeError):
        type("X", (Record,), ns, order=True)


def test_every_field_default_is_hashable():
    checked = 0
    for cls in RECORD_CLASSES:
        names = _fields(cls)
        required = _samples(cls)[0][: len(_required(cls))]
        r = cls(*required)
        for name in names[len(required) :]:
            default = _default(cls, name)
            assert getattr(r, name) is default, (cls, name)
            hash(default)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "cls",
    [c for c in RECORD_CLASSES if any(isinstance(_default(c, name), FrozenMap) for name in _fields(c))],
    ids=lambda c: c.__qualname__,
)
def test_default_factory_gives_a_fresh_object(cls):
    """A map default shared by two records cannot carry a change from one to the other.

    The defaults that were fresh dicts from a factory are one empty FrozenMap
    each; it equals the dict a factory gave and refuses every change.
    """
    required = _samples(cls)[0][: len(_required(cls))]
    a, b = cls(*required), cls(*required)
    for name in _fields(cls):
        default = _default(cls, name)
        if isinstance(default, FrozenMap):
            assert getattr(a, name) == {} == getattr(b, name)
            with pytest.raises(TypeError):
                getattr(a, name)["x"] = 1
            with pytest.raises(TypeError):
                getattr(a, name).update(x=1)
            assert getattr(b, name) == {} and a == b


def test_frozen_map_is_a_dict_that_hashes_and_cannot_change():
    items = {"u": -1, "p": 1}
    m = FrozenMap(items)
    assert m == items and items == m and isinstance(m, dict)
    assert FrozenMap(items) is not m and hash(FrozenMap({"p": 1, "u": -1})) == hash(m)
    assert repr(m) == repr(items) and str(FrozenMap()) == "{}"
    assert FrozenMap({"u": 1}) != m
    mutations = [
        lambda: m.__setitem__("u", 1),
        lambda: m.__delitem__("u"),
        lambda: m.__ior__({"x": 1}),
        m.clear,
        lambda: m.pop("u"),
        m.popitem,
        lambda: m.setdefault("x", 1),
        lambda: m.update(x=1),
    ]
    for mutate in mutations:
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(TypeError):
        m |= {"x": 1}
    assert m == items


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_values_hash_and_two_loads_are_equal(name):
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", f"{name}.json")
    a, b = load_scenario(path), load_scenario(path)
    assert a == b and hash(a) == hash(b)
    assert hash(a.parameter) == hash(b.parameter)
    for value in (*a.places, *a.elements, *a.cuspidal, *a.mp2_weil):
        hash(value)
    for datum, _ in a.parameter.summands:
        hash(datum)
    for place in a.places:
        lp, _, _ = localize(a.parameter, place)
        assert lp == localize(b.parameter, place)[0]
        assert hash(lp) == hash(localize(b.parameter, place)[0])


@pytest.mark.parametrize(
    "cls", [c for c in RECORD_CLASSES if "__post_init__" in vars(c)], ids=lambda c: c.__qualname__
)
def test_post_init_runs(cls, monkeypatch):
    seen = []
    original = cls.__post_init__

    def spy(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", spy)
    r = cls(*_samples(cls)[0])
    assert seen == [r] and seen[0] is r


# every map field of a record: a record is a hashable value only if each is a FrozenMap
MAP_FIELDS = [
    ("GlobalElement", "classes"),
    ("CuspidalDatum", "local"),
    ("CuspidalDatum", "twisted_roots"),
    ("CuspidalDatum", "l_half_nonzero"),
    ("RhoIrreducibleSymplectic", "eps_twists"),
    ("RhoSteinberg", "eps_twists"),
    ("ShTempered", "sc_signs"),
]


def test_map_fields_are_the_mapping_annotated_fields():
    annotated = {
        (cls.__name__, name)
        for cls in RECORD_CLASSES
        for name, note in vars(cls).get("__annotations__", {}).items()
        if "Mapping" in str(note) or "FrozenMap" in str(note)
    }
    assert annotated == set(MAP_FIELDS)


@pytest.mark.parametrize("cls_name,name", MAP_FIELDS)
def test_map_field_refuses_a_plain_dict(cls_name, name):
    # a dict would build a record that raises only when hashed later, as
    # residual_spectrum's local keys hash the local shapes of a datum
    (cls,) = [c for c in RECORD_CLASSES if c.__name__ == cls_name]
    values = dict(zip(_fields(cls), _samples(cls)[0]))
    hash(cls(**values))
    values[name] = dict(values[name])
    with pytest.raises(TypeError, match=rf"^{cls_name}\.{name} must be a FrozenMap, not dict$"):
        cls(**values)


def test_post_init_rejects_bad_values():
    from mp4spectrum.fields import Place

    with pytest.raises(ValueError):
        Place("v1", "no-such-kind")


def _child(code):
    """What code prints in a fresh interpreter, under -S, with the package on its path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_cli_import_loads_no_dataclasses():
    heavy = {"dataclasses", "inspect", "argparse", "gettext"}
    assert _child(f"import sys, mp4spectrum.cli; print(sorted({heavy!r} & set(sys.modules)))").strip() == "[]"


# the record classes with an instance built at import: module constants such as ZERO and the shared local groups
BUILT_AT_IMPORT = {"Zero", "ReductionResult", "ComponentGroup", "LocalizationMap"}


def test_record_methods_are_built_on_first_use():
    code = """if True:
        import json, mp4spectrum.cli, mp4spectrum.record as record
        from mp4spectrum.descriptors import Seg
        from mp4spectrum.record import Record, _STUBS
        classes = Record.__subclasses__()
        built = lambda kind: sorted(c.__name__ for c in classes if vars(c)[kind] not in _STUBS)
        print(json.dumps([sorted(record._TEMPLATES), *map(built, ("__init__", "__eq__", "__hash__", "__repr__"))]))
        Seg("chi", 1)
        init, repr_ = vars(Seg)["__init__"], vars(Seg)["__repr__"]
        print(json.dumps([init not in _STUBS, init.__code__.co_varnames, init.__qualname__, repr_ in _STUBS]))
    """
    at_import, after_use = map(json.loads, _child(code).splitlines())
    templates, init, eq, hash_, repr_ = at_import
    # at import only the constants' __init__ is built, and only its template compiled
    assert init == sorted(BUILT_AT_IMPORT) and eq == hash_ == repr_ == []
    assert {kind for kind, _, _ in templates} == {"__init__"} and len(templates) <= len(BUILT_AT_IMPORT)
    # one construction builds the class's __init__, the template with its fields, and nothing else
    assert after_use == [True, ["self", "char", "s"], "Seg.__init__", True]
