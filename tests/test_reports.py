"""reports.dumps, the package's JSON writer, against json.dumps(indent=2, ensure_ascii=False)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mp4spectrum.reports import Encoded, dumps


def reference(x) -> str:
    return json.dumps(x, indent=2, ensure_ascii=False)


# quotes, backslashes, control characters, non-ASCII and astral characters
TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ", "𝔽₂", ""])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**100), 2**100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
# json converts int, float, bool and None keys to str before writing them
KEYS = TEXT | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | st.floats()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)
SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@SETTINGS
@given(VALUES)
def test_dumps_is_json_dumps(x):
    assert dumps(x) == reference(x)


@SETTINGS
@given(st.dictionaries(TEXT, VALUES, min_size=1, max_size=4), st.data())
def test_dumps_splices_a_top_level_encoded_value(plain, data):
    # an Encoded value is the text of its value laid out one level deep
    key = data.draw(st.sampled_from(sorted(plain)))
    encoded = dict(plain)
    encoded[key] = Encoded(lambda: reference(plain[key]).replace("\n", "\n  "))
    assert dumps(encoded) == reference(plain)


@pytest.mark.parametrize("key", [1, -7, 2**80, True, False, None, 2.5, float("nan")])
def test_dumps_converts_non_str_keys_as_json_does(key):
    assert dumps({key: [key]}) == reference({key: [key]})


@pytest.mark.parametrize("bad", [{(1, 2): 0}, {"a": object()}, [{1j: 0}]])
def test_dumps_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        dumps(bad)
