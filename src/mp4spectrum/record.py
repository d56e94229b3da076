"""Value classes whose methods are not compiled per class.

Every term of the package (descriptors, parameters, local shapes, packet
entries, reports) is a small record class.  ``dataclasses`` builds the
methods of each such class by compiling generated source at import
(about 0.75 ms per class on Python 3.11), and importing it pulls in
``inspect`` and ``ast``; over the package's 79 classes that was most of
the start-up time of every CLI call.  Here one shared base gives the
classes their behaviour:

    class Seg(Record):
        char: CharAtom
        s: Fraction

Fields are the annotated class attributes, in order, and a class
attribute gives a default.  Every field value is immutable, so a default
is one value shared by all instances (a map is a ``FrozenMap``, the one
mapping type inside records, which a class's ``__post_init__`` built by
``frozen_maps`` enforces).  The behaviour is that of a frozen, unordered
dataclass, and the base takes no class keyword:

* ``__init__`` takes the fields positionally or by keyword, fills the
  defaults, then calls ``__post_init__`` if the class defines one;
* instances raise ``AttributeError`` on assignment and deletion
  (``__post_init__`` may still write through ``object.__setattr__``);
* ``==`` holds only between instances of the same class with equal
  fields (an instance equals itself without reading them), ``hash`` is
  the hash of the field tuple, and ``<``, ``<=``, ``>`` and ``>=`` raise
  ``TypeError``;
* ``repr`` is ``Name(field=value, ...)``, byte for byte the dataclass
  text (canonical sort keys are built on it).

``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are hot (a
residual-spectrum run builds thousands of terms, compares, hashes and
``repr``s them).  Written as shared functions reading the fields
generically, the first three took about twice as long per call as the
dataclass ones, and ``__hash__`` about 1.5 times as long as the compiled
one, in micro-benchmarks on Python 3.11; keeping the values in a
materialized ``__dict__`` instead made every attribute read about twice
as slow.  So
each of the four is compiled once per field count, for placeholder fields
``_0``, ``_1``, ..., and each class gets copies of those code objects
with the placeholders swapped for its field names (``CodeType.replace``
of ``co_varnames``, ``co_names`` and the string ``co_consts``): the
methods read fields by name as hand-written ones would, and keyword
arguments, defaults and argument errors of ``__init__`` behave as usual.
No other code-object detail is touched, which keeps the copies valid from
Python 3.10 on (checked on 3.10 to 3.13).

A class gets each copy on first use.  Defining it installs four shared
stubs; the first call of one on the class builds the method, puts it on
the class in the stub's place and makes that call, so later calls run the
copy directly.  A CLI call uses a few dozen of the 316 methods: a fresh
``validate`` child builds 15 (10 templates) in about 2 ms, where
building all of them at import took about 8 ms (Python 3.11.7, 2-vCPU
VM).  A field without a default after one with a default is reported on
the first construction.
"""

from __future__ import annotations

from types import FunctionType

_MISSING = object()
_set = object.__setattr__


class FrozenMap(dict):
    """A dict that cannot change once built, so it hashes; its repr is dict's."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def _frozen(self, *args, **kwargs):
        raise TypeError("a FrozenMap cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen


def frozen_maps(*names: str):
    """A ``__post_init__`` refusing a map field that is not a ``FrozenMap``, which would fail only when hashed."""

    def __post_init__(self) -> None:
        for name in names:
            if not isinstance(getattr(self, name), FrozenMap):
                kind = type(getattr(self, name)).__name__
                raise TypeError(f"{type(self).__qualname__}.{name} must be a FrozenMap, not {kind}")

    return __post_init__


_TEMPLATES: dict = {}


def _template(kind: str, n: int, post_init: bool = False):
    """Code of method ``kind`` for ``n`` fields named ``_0 .. _{n-1}``.

    ``__init__`` ends with a call of ``__post_init__`` when ``post_init``.
    """
    key = (kind, n, post_init)
    if key not in _TEMPLATES:
        x = [f"_{i}" for i in range(n)]
        mine, theirs = ("(" + "".join(f"{obj}.{a}, " for a in x) + ")" for obj in ("self", "other"))
        if kind == "__init__":
            lines = [f"def __init__({', '.join(['self', *x])}):"]
            lines += [f"    _set(self, {a!r}, {a})" for a in x]
            lines.append("    self.__post_init__()" if post_init else "    pass")
        elif kind == "__eq__":
            lines = [
                "def __eq__(self, other):",
                "    if other is self:",
                "        return True",
                "    if other.__class__ is self.__class__:",
                f"        return {mine} == {theirs}",
                "    return NotImplemented",
            ]
        elif kind == "__hash__":
            lines = ["def __hash__(self):", f"    return hash({mine})"]
        else:
            shown = ", ".join(f"{a}={{self.{a}!r}}" for a in x)
            lines = ["def __repr__(self):", f'    return f"{{self.__class__.__qualname__}}({shown})"']
        scope: dict = {}
        exec(compile("\n".join(lines), "<record>", "exec"), scope)
        _TEMPLATES[key] = scope[kind].__code__
    return _TEMPLATES[key]


def _method(cls, kind: str) -> FunctionType:
    """Method ``kind`` of ``cls``: the template for its field count, the placeholders renamed to its fields."""
    names = cls.__record_fields__
    rename = {}
    for i, name in enumerate(names):
        sep = ", " if i else "("
        rename[f"_{i}"] = name
        rename[f"{sep}_{i}="] = f"{sep}{name}="  # "(_0=", ", _1=" in __repr__
    init = kind == "__init__"
    template = _template(kind, len(names), init and hasattr(cls, "__post_init__"))
    code = template.replace(
        co_varnames=tuple([rename.get(v, v) for v in template.co_varnames]),
        co_names=tuple([rename.get(v, v) for v in template.co_names]),
        co_consts=tuple([rename.get(c, c) if type(c) is str else c for c in template.co_consts]),
    )
    method = FunctionType(code, globals(), kind, _defaults(cls, names) if init else None)
    method.__qualname__ = f"{cls.__qualname__}.{kind}"
    method.__module__ = cls.__module__
    return method


def _defaults(cls, names: tuple):
    """The defaults of ``__init__``: the class attributes of the trailing fields."""
    defaults = []
    for name in names:
        value = getattr(cls, name, _MISSING)
        if value is not _MISSING:
            defaults.append(value)
        elif defaults:
            raise TypeError(f"{cls.__qualname__}: field {name!r} without a default follows one with a default")
    return tuple(defaults) or None


def _stub(kind: str) -> FunctionType:
    """Method ``kind`` of every record class until its first call there, which puts the class's own in its place."""

    def stub(self, *args, **kwargs):
        method = _method(type(self), kind)
        setattr(type(self), kind, method)
        return method(self, *args, **kwargs)

    return stub


_STUBS = tuple(map(_stub, ("__init__", "__eq__", "__hash__", "__repr__")))


class Record:
    """Base of the package's value classes; see the module docstring."""

    __record_fields__: tuple = ()  # the field names, in order

    def __init_subclass__(cls) -> None:
        cls.__record_fields__ = (*cls.__record_fields__, *cls.__dict__.get("__annotations__", {}))
        cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = _STUBS

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
