"""Reports: one result dict per command, rendered as JSON or as text.

The JSON form is plain JSON-serializable data with deterministic
ordering, so exported atlases diff cleanly across runs; a top-level value
may come as Encoded text that dumps splices in.  The text form is
a rendering of the same dict, built only when it is asked for.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .record import Record


class Encoded(Record):
    """A top-level value whose JSON text, laid out at that depth as dumps would lay it out, is encode()."""

    encode: Callable[[], str]


def dumps(data) -> str:
    """The package's one JSON writer: two-space indent, non-ASCII kept.

    The text of a top-level value given as Encoded is spliced in as it is,
    and the rest of the object is encoded around it.
    """
    if not isinstance(data, dict) or not any(isinstance(v, Encoded) for v in data.values()):
        return json.dumps(data, indent=2, ensure_ascii=False)
    parts = []
    for k, v in data.items():
        text = v.encode() if isinstance(v, Encoded) else dumps(v).replace("\n", "\n  ")
        parts += (",\n  ", json.dumps(k, ensure_ascii=False), ": ", text)
    parts[0] = "{\n  "
    parts.append("\n}")
    return "".join(parts)


class Report(Record):
    command: str
    data: dict
    text: Callable[[dict], Iterable[str]]  # data -> the lines of the text form

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return dumps({"command": self.command, **self.data})
        return "\n".join(self.text(self.data))
