"""Reports: one result dict per command, rendered as JSON or as text.

The JSON form is plain JSON-serializable data with deterministic
ordering, so exported atlases diff cleanly across runs; a top-level value
may come as Encoded pieces of text that dumps splices in.  The text form is
a rendering of the same dict, built only when it is asked for.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Callable, Iterable

from .record import Record


class Encoded(Record):
    """A top-level value whose JSON text, laid out at that depth as dumps would lay it out, is joined from encode()."""

    encode: Callable[[], list]  # the pieces of the text, in order


def dumps(data) -> str:
    """The package's one JSON writer: two-space indent, non-ASCII kept.

    Byte for byte ``json.dumps(data, indent=2, ensure_ascii=False)``, whose
    indented form runs json's pure-Python encoder.  The text is joined once
    from pieces, an Encoded value's among them.
    """
    out: list = []
    _write(data, "\n", out)
    return "".join(out)


def _write(o, nl: str, out: list) -> None:
    """Append the pieces of o's JSON text to out; nl is the newline and indent at o's depth."""
    if isinstance(o, str):
        out.append(encode_basestring(o))
        return
    inner = nl + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for k, v in o.items():
            # json converts an int, float, bool or None key to str, and refuses others
            key = encode_basestring(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
            if type(v) is str:  # most of a report: one piece per entry
                out.append(f"{sep}{key}: {encode_basestring(v)}")
            else:
                out.append(f"{sep}{key}: ")
                _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]" if o else "[]")
    elif isinstance(o, Encoded):
        pieces = o.encode()
        if isinstance(pieces, str):  # extending out with it would splice it in one character at a time
            raise TypeError("Encoded.encode() returns a list of pieces, not a str")
        out += pieces
    else:
        out.append(json.dumps(o))  # numbers, booleans and None; anything else raises TypeError


# a top-level key's array of objects with string, boolean and string-map fields, in pieces
# laid out as dumps lays them out: an object opens with OBJECT, a field starts with FIELD
OBJECT, FIELD, MAP_END, OBJECT_END = ",\n    {", "\n      ", "\n      }", "\n    }"


def entry(key: str, value: str) -> str:
    """A map field's entry "key": "value", from its newline to before its comma."""
    return f"\n        {encode_basestring(key)}: {encode_basestring(value)}"


def array(parts: list) -> list:
    """The pieces of the array of its objects' pieces; the first object's comma becomes the bracket."""
    if not parts:
        return ["[]"]
    parts[0] = "[" + parts[0][1:]
    parts.append("\n  ]")
    return parts


class Report(Record):
    command: str
    data: dict
    text: Callable[[dict], Iterable[str]]  # data -> the lines of the text form

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return dumps({"command": self.command, **self.data})
        return "\n".join(self.text(self.data))
