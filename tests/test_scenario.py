"""The scenario loader's success-path readers give what the general readers give.

``scenario._field`` returns a value that a checking reader of ``_PASSES``
passes without calling the reader or formatting the path, and
``scenario._as_fraction`` reads a plain ASCII ``n`` or ``n/d`` by int()
instead of by Fraction's pattern.  Either must return what the general
route returns and refuse what it refuses, with the same error.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mp4spectrum.scenario import _PASSES, SchemaError, _as_fraction, _field, _shown

# ASCII digits and two non-ASCII ones, "²" that str.isdigit() accepts and int() refuses, and "١" that both read,
# with every other character Fraction's pattern reads
FRACTION_TEXT = st.text(alphabet="0123456789²١/+-.e_ ", max_size=12)

# a JSON value of each type, with the signs, the bools and the numbers that equal a sign
SCALARS = (st.none(), st.booleans(), st.integers(), st.sampled_from((1, -1, 0, 2, 1.0, -1.0)),
           st.floats(allow_nan=False), st.text(max_size=5))
JSON_VALUES = st.one_of(*SCALARS, st.lists(st.one_of(*SCALARS), max_size=3),
                        st.dictionaries(st.text(max_size=3), st.one_of(*SCALARS), max_size=3))


@settings(max_examples=400, deadline=None)
@given(st.one_of(FRACTION_TEXT, st.integers(), st.booleans()))
@example("²")
@example("1/²")
@example("١/2")
@example("1/0")
@example("0/00")
@example("007/0014")
def test_as_fraction_returns_what_fraction_returns(value):
    try:
        got = _as_fraction(value, "$.x")
    except SchemaError as exc:
        if "may have more than" not in str(exc):  # the digit guard, which no fast path reaches, aside
            assert str(exc) == f"$.x: not a rational number: {_shown(value)}"
            with pytest.raises((ValueError, ZeroDivisionError)):
                Fraction(str(value))
    else:
        expected = Fraction(str(value))
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_PASSES, key=lambda reader: reader.__name__)), JSON_VALUES, st.booleans())
def test_field_returns_what_its_reader_returns(reader, value, as_default):
    obj, default = ({}, value) if as_default else ({"k": value}, None)
    args = (obj, "k", "$.p", reader) + ((default,) if as_default else ())
    try:
        expected = reader(value, "$.p.k")
    except SchemaError as exc:
        with pytest.raises(SchemaError) as refused:
            _field(*args)
        assert (refused.value.path, str(refused.value)) == (exc.path, str(exc))
    else:
        assert _field(*args) is expected


@pytest.mark.parametrize("reader", sorted(_PASSES, key=lambda reader: reader.__name__))
def test_field_refuses_a_missing_key_at_its_path(reader):
    with pytest.raises(SchemaError, match=r"^\$\.p\.k: missing required field$"):
        _field({}, "k", "$.p", reader)
