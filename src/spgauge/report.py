"""Machine-readable run reports.

Every CLI command builds a Report and renders it as JSON, CSV, or a markdown
table.  All numeric values are carried as exact decimal strings (rationals
as "p/q"), construction order is preserved everywhere, and rendering is
byte-stable run to run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

FORMATS = ("json", "csv", "markdown")


def fmt_int(x: int) -> str:
    return str(int(x))


def fmt_frac(x: Fraction) -> str:
    """Exact string for a rational: "p/q", or just "p" when q == 1."""
    return str(Fraction(x))


def fmt_bool(x: bool) -> str:
    return "true" if x else "false"


@dataclass
class Report:
    command: str
    parameters: dict[str, str]
    rows: list[dict[str, str]]
    failures: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "ok" if not self.failures else "failed"

    def to_json_dict(self) -> dict:
        """The report as a JSON document.  It shares the parameter, row and
        failure containers with the report rather than copying them, which
        keeps a large grid from being held twice while it is serialised."""
        return {
            "command": self.command,
            "parameters": self.parameters,
            "rows": self.rows,
            "status": self.status,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        report = cls(
            command=data["command"],
            parameters=dict(data["parameters"]),
            rows=[dict(r) for r in data["rows"]],
            failures=list(data["failures"]),
        )
        if report.status != data["status"]:
            raise ValueError("status field inconsistent with failures")
        return report

    def _columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self) -> str:
        """Rows as CSV, UTF-8 text with LF line endings; the header lists the
        union of row field names in first-seen order."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = self._columns()
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([row.get(c, "") for c in cols])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [f"# {self.command}", ""]
        if self.parameters:
            for key, val in self.parameters.items():
                lines.append(f"- {key}: {val}")
            lines.append("")
        cols = self._columns()
        if cols:
            lines.append("| " + " | ".join(cols) + " |")
            lines.append("|" + "|".join(" --- " for _ in cols) + "|")
            for row in self.rows:
                lines.append("| " + " | ".join(row.get(c, "") for c in cols) + " |")
            lines.append("")
        lines.append(f"status: {self.status}")
        for f in self.failures:
            lines.append(f"- FAIL: {f}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "markdown":
            return self.to_markdown()
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
