"""The record base behaves as the dataclass it replaced, class by class.

Every record class of the package is compared with a ``dataclasses``
twin built here from the same fields, defaults, options and methods:
``repr`` text, equality, hashing, ordering, frozenness, default factories
and ``__post_init__``.  A last test checks that importing the CLI loads
neither ``dataclasses`` nor ``inspect``, which is what makes start-up cheap.
"""

import dataclasses
import importlib
import itertools
import operator
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import mp4spectrum
from mp4spectrum.record import _MISSING, Record

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
    "__init__", "__setattr__", "__delattr__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__",
    "__record_fields__", "__record_frozen__", "__record_order__", "__repr__", "__eq__", "_astuple",
}


def _place():
    from mp4spectrum.fields import Place

    return Place("v1", "nonarch-odd-3mod4")


# valid arguments for the classes whose __post_init__ checks them; every
# other class takes any values
SAMPLES = {
    "Place": lambda: [("v1", "real"), ("v1", "nonarch-dyadic")],
    "SquareClass": lambda: [(_place(), (0, 1)), (_place(), (1, 0))],
    "KTypeO": lambda: [(2, 1, (0,), -1, (), -1), (2, 1, (3,), 1, (), 1)],
    "KTypeMp": lambda: [((Fraction(3, 2), Fraction(1, 2)),), ((Fraction(1, 2), Fraction(-1, 2)),)],
    "RhoPrincipalSeries": lambda: [("chi", Fraction(1, 4), -1), ("chi", Fraction(0), 1)],
    "RhoRealDiscrete": lambda: [(2,), (3,)],
    "RhoRealOrthogonalDiscrete": lambda: [(1,), (4,)],
    "CuspidalDatum": lambda: [
        ("rho", 2, "symplectic", 1, {"v1": "shape"}),
        ("rho", 4, "symplectic", -1, {"v1": "shape"}, {"t": -1}, {"t": False}),
    ],
}


def _fields(cls):
    return cls.__record_fields__


def _required(cls):
    return [f for f in _fields(cls) if f.default_factory is None and f.default is _MISSING]


def _samples(cls):
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]()
    n = len(_fields(cls))
    if n < 2:
        return [("x",) * n, ("y",) * n]
    # the first field orders one way, the last the other
    return [("x",) * n, ("w",) + ("x",) * (n - 2) + ("y",)]


def _twin(cls):
    names = {f.name for f in _fields(cls)}
    specs = []
    for f in _fields(cls):
        if f.default_factory is not None:
            spec = dataclasses.field(default_factory=f.default_factory, repr=f.repr)
        elif f.default is not _MISSING:
            spec = dataclasses.field(default=f.default, repr=f.repr)
        else:
            spec = dataclasses.field(repr=f.repr)
        specs.append((f.name, "object", spec))
    namespace = {k: v for k, v in vars(cls).items() if k not in RECORD_ATTRS and k not in names}
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=namespace, frozen=cls.__record_frozen__, order=cls.__record_order__
    )


def _other(cls):
    """A record class with the same fields and options under another name."""
    ns = {"__annotations__": {f.name: "object" for f in _fields(cls)}}
    return type("Other", (Record,), ns, frozen=cls.__record_frozen__, order=cls.__record_order__)


def _values(obj, cls):
    return tuple(getattr(obj, f.name) for f in _fields(cls))


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
    names = [f.name for f in _fields(cls)]
    for vals in samples:
        r, t = cls(*vals), twin(*vals)
        assert repr(r) == repr(t)
        assert _values(r, cls) == _values(t, cls)
        assert cls(**dict(zip(names, vals))) == r
        assert r == cls(*vals) and not (r != cls(*vals))
        assert r != t and t != r
        assert r != _other(cls)(*_values(r, cls))
        if cls.__record_frozen__:
            assert _hash(r) == _hash(_values(r, cls)) == _hash(t)
            attr = names[0] if names else "x"
            with pytest.raises(AttributeError):
                setattr(r, attr, 0)
            with pytest.raises(AttributeError):
                delattr(r, attr)
        else:
            assert cls.__hash__ is None and twin.__hash__ is None
        with pytest.raises(TypeError):
            cls(*_values(r, cls), "one too many")
    for a, b in itertools.product(samples, repeat=2):
        ra, rb, ta, tb = cls(*a), cls(*b), twin(*a), twin(*b)
        assert (ra == rb) == (ta == tb)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            if cls.__record_order__:
                assert op(ra, rb) == op(ta, tb)
            else:
                with pytest.raises(TypeError):
                    op(ra, rb)
    if cls.__record_order__:
        r = cls(*samples[0])
        for other in (_other(cls)(*_values(r, cls)), twin(*samples[0])):
            with pytest.raises(TypeError):
                r < other


@pytest.mark.parametrize(
    "cls",
    [c for c in RECORD_CLASSES if any(f.default_factory is not None for f in _fields(c))],
    ids=lambda c: c.__qualname__,
)
def test_default_factory_gives_a_fresh_object(cls):
    required = _samples(cls)[0][: len(_required(cls))]
    a, b, t = cls(*required), cls(*required), _twin(cls)(*required)
    for f in _fields(cls):
        if f.default_factory is not None:
            assert getattr(a, f.name) == f.default_factory() == getattr(t, f.name)
            assert getattr(a, f.name) is not getattr(b, f.name)


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


def test_post_init_rejects_bad_values():
    from mp4spectrum.fields import Place

    with pytest.raises(ValueError):
        Place("v1", "no-such-kind")


def test_cli_import_loads_no_dataclasses():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, mp4spectrum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
