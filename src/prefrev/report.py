"""Plain-text verification reports with stable, line-oriented rendering."""

from __future__ import annotations

from .prefs import Record


class CheckLine(Record):
    __slots__ = ("ok", "text")

    def render(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.text}"


class Report:
    """A titled list of check lines; the checkers add to it as they go."""

    __slots__ = ("title", "lines")

    def __init__(self, title: str) -> None:
        self.title = title
        self.lines: list[CheckLine] = []

    def add(self, ok: bool, text: str) -> bool:
        self.lines.append(CheckLine(ok, text))
        return ok

    def extend(self, other: "Report") -> None:
        self.lines.extend(other.lines)

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    @property
    def failures(self) -> list[CheckLine]:
        return [line for line in self.lines if not line.ok]

    def render(self) -> str:
        body = "\n".join(line.render() for line in self.lines)
        verdict = "PASS" if self.ok else "FAIL"
        return f"== {self.title} ==\n{body}\nresult: {verdict}\n"
