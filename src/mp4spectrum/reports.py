"""Report objects: one machine-readable dict, one human-readable text form.

The machine form is plain JSON-serializable data with deterministic
ordering, so exported atlases diff cleanly across runs.
"""

from __future__ import annotations

import json

from .record import Record, field


class Report(Record, frozen=False):
    command: str
    data: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def say(self, text: str = "") -> None:
        self.lines.append(text)

    def to_json(self) -> str:
        return json.dumps({"command": self.command, **self.data}, indent=2, ensure_ascii=False)

    def to_text(self) -> str:
        return "\n".join(self.lines)

    def emit(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()
