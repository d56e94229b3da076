"""reports.dumps, the package's JSON writer, against json.dumps(indent=2, ensure_ascii=False).

The constituent arrays that cli joins from encoded pieces are checked against dumps,
and cli's writer, which writes a report in slices, against the export-tables goldens.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from golden_calls import GOLDEN
from mp4spectrum.cli import SLICE, _constituents_json, _residual_json, _write, main
from mp4spectrum.reports import Encoded, array, dumps
from mp4spectrum.residual import ResidualConstituent


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
    # an Encoded value is the text of its value laid out one level deep, in pieces cut anywhere
    key = data.draw(st.sampled_from(sorted(plain)))
    text = reference(plain[key]).replace("\n", "\n  ")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=6)))
    pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    encoded = dict(plain)
    encoded[key] = Encoded(lambda: pieces)
    assert dumps(encoded) == reference(plain)


def test_dumps_refuses_an_encoded_str():
    # extending the pieces with a str would splice it in a character at a time, and the text would still come out
    with pytest.raises(TypeError):
        dumps({"a": Encoded(lambda: '"b"')})


@pytest.mark.parametrize("key", [1, -7, 2**80, True, False, None, 2.5, float("nan")])
def test_dumps_converts_non_str_keys_as_json_does(key):
    assert dumps({key: [key]}) == reference({key: [key]})


@pytest.mark.parametrize("bad", [{(1, 2): 0}, {"a": object()}, [{1j: 0}]])
def test_dumps_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        dumps(bad)


# --- the constituent arrays cli joins from reports' pieces ----------------

NAMES = TEXT | st.sampled_from(["\u2028", 'q"\\\x01\u2028é𝔽₂'])


def _top(key, value):
    return dumps({"command": "c", "count": 1, key: value})


@SETTINGS
@given(st.data())
def test_residual_array_is_dumps_of_the_dict_form(data):
    pids = data.draw(st.lists(NAMES, unique=True, max_size=4))
    members = [object() for _ in range(data.draw(st.integers(1, 4)))]
    shown = {id(m): data.draw(NAMES) for m in members}
    cons = []
    for _ in range(data.draw(st.integers(0, 4))):
        places = data.draw(st.lists(st.sampled_from(pids), unique=True)) if pids else []
        descriptor = tuple((pid, data.draw(st.sampled_from(members))) for pid in places)
        cons.append(ResidualConstituent(data.draw(NAMES), data.draw(NAMES), data.draw(NAMES), descriptor, None))
    # the report dicts residual built before its array was Encoded
    dicts = [
        {"name": c.name, "support": c.support, "family": c.family, "members": {p: shown[id(d)] for p, d in c.descriptor}}
        for c in cons
    ]
    assert _top("constituents", Encoded(lambda: _residual_json(cons, shown))) == _top("constituents", dicts)


def test_empty_array():
    assert array([]) == ["[]"]
    assert _top("constituents", Encoded(lambda: array([]))) == _top("constituents", [])


@pytest.mark.parametrize("descriptors", [[], [()], [(), ()]])
def test_residual_array_with_no_constituents_or_members(descriptors):
    cons = [ResidualConstituent(f"c{i}", "B", "principal", d, None) for i, d in enumerate(descriptors)]
    dicts = [{"name": c.name, "support": "B", "family": "principal", "members": {}} for c in cons]
    assert _top("constituents", Encoded(lambda: _residual_json(cons, {}))) == _top("constituents", dicts)


@SETTINGS
@given(st.data())
def test_enumerate_array_is_dumps_of_the_dict_form(data):
    pids = data.draw(st.lists(NAMES, unique=True, min_size=1, max_size=4))
    places = [(pid, data.draw(st.lists(NAMES, min_size=1, max_size=3)), []) for pid in pids]
    places = [(pid, labels, [data.draw(NAMES) for _ in labels]) for pid, labels, _ in places]
    listed = data.draw(
        st.lists(st.tuples(st.tuples(*(st.integers(0, len(labels) - 1) for _, labels, _ in places)), st.booleans()))
    )
    dicts = [
        {
            "eta": {pid: labels[k] for k, (pid, labels, _) in zip(choice, places)},
            "members": {pid: rendered[k] for k, (pid, _, rendered) in zip(choice, places)},
            "vanishing": vanishing,
        }
        for choice, vanishing in listed
    ]
    # laid down as listed_tuples lays each tuple down: item 0 of its rows, then item 1, then its tail
    rows, tails = _constituents_json(places)
    parts = []
    for choice, vanishing in listed:
        picked = [rows[k][i] for k, i in enumerate(choice)]
        parts += [eta for eta, _ in picked] + [member for _, member in picked] + [tails[vanishing]]
    assert _top("constituents", Encoded(lambda: array(parts))) == _top("constituents", dicts)


# --- cli's writer ----------------------------------------------------------


@pytest.mark.parametrize("size", [0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3])
def test_write_is_the_text_then_end(size):
    text = ("a\u00e9\U0001d53d\n" * size)[:size]  # slices fall between any two characters, astral ones too
    out = io.StringIO()
    _write(out, text)
    assert out.getvalue() == text + "\n"
    out = io.StringIO()
    _write(out, text, end="")
    assert out.getvalue() == text


def test_export_tables_is_written_byte_for_byte_across_slices(tmp_path, capsys):
    # the writer's byte-identity check: each export-tables golden is longer than one slice
    with open(os.path.join(GOLDEN, "export-tables.json"), "rb") as fh:
        golden_json = fh.read()
    with open(os.path.join(GOLDEN, "export-tables.txt"), "rb") as fh:
        golden_text = fh.read()
    assert len(golden_json) > SLICE and len(golden_text) > SLICE
    capsys.readouterr()
    assert main(["export-tables", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden_json
    # the -o file holds the text form without its newline
    assert main(["export-tables", "-o", str(tmp_path / "tables.json")]) == 0
    assert (tmp_path / "tables.json").read_bytes() == golden_text[:-1]
