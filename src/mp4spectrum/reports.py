"""Reports: one result dict per command, rendered as JSON or as text.

The JSON form is plain JSON-serializable data with deterministic
ordering, so exported atlases diff cleanly across runs.  The text form is
a rendering of the same dict, built only when it is asked for.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .record import Record


def dumps(data) -> str:
    """The package's one JSON writer: two-space indent, non-ASCII kept."""
    return json.dumps(data, indent=2, ensure_ascii=False)


class Report(Record):
    command: str
    data: dict
    text: Callable[[dict], Iterable[str]]  # data -> the lines of the text form

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return dumps({"command": self.command, **self.data})
        return "\n".join(self.text(self.data))
