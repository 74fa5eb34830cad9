"""Machine-readable run reports.

Every CLI command builds a Report and writes it as JSON, CSV, or a markdown
table.  All numeric values are carried as exact decimal strings (rationals
as "p/q"), construction order is preserved everywhere, and the output is
byte-stable run to run.  A report is written incrementally, header, rows in
blocks, footer, so rows that come from a generator are never held whole.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, TextIO

FORMATS = ("json", "csv", "markdown")
# rows per write; a report of at most this many rows is written at once
_BLOCK = 4096


def fmt_int(x: int) -> str:
    return str(int(x))


def fmt_frac(x: Fraction) -> str:
    """Exact string for a rational: "p/q", or just "p" when q == 1."""
    return str(Fraction(x))


def fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def _json_block(opener: str, items: list[str], closer: str, indent: int) -> str:
    """A JSON object or array of already-encoded members, laid out as
    json.dumps(..., indent=2) lays it out at the given depth."""
    if not items:
        return opener + closer
    pad = "\n" + " " * (indent + 2)
    return opener + pad + ("," + pad).join(items) + "\n" + " " * indent + closer


def _json_row(row: dict[str, str]) -> str:
    return _json_block(
        "{", [_quote(k) + ": " + _quote(v) for k, v in row.items()], "}", 4)


@dataclass
class Report:
    """A command's answer.  rows is a list of string-to-string records whose
    columns are the union of their keys in first-seen order, or any
    one-pass iterable of records when columns declares the fields; such a
    report can be written once."""

    command: str
    parameters: dict[str, str]
    rows: Iterable[dict[str, str]]
    failures: list[str] = field(default_factory=list)
    columns: tuple[str, ...] | None = None

    @property
    def status(self) -> str:
        return "ok" if not self.failures else "failed"

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
        if self.columns is not None:
            return list(self.columns)
        if iter(self.rows) is self.rows:
            raise ValueError("a report with streamed rows must declare its columns")
        return list(dict.fromkeys(key for row in self.rows for key in row))

    def write(self, fmt: str, out: TextIO) -> None:
        """Write the report to out in fmt: the header, the rows in blocks of
        _BLOCK, then the footer.  A report of at most one block of rows is
        a single write."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        head, block, tail = getattr(self, f"_{fmt}_parts")(self._columns())
        rows = iter(self.rows)
        text, first = head, True
        while chunk := list(islice(rows, _BLOCK)):
            if not first:
                out.write(text)
                text = ""
            text += block(chunk, first)
            first = False
        out.write(text + tail(not first))

    def render(self, fmt: str) -> str:
        buf = io.StringIO()
        self.write(fmt, buf)
        return buf.getvalue()

    # Each _<fmt>_parts(columns) returns the header text, block(rows, first)
    # giving the text of a block of rows, and tail(any_rows) the footer.

    def _json_parts(self, cols):
        params = [_quote(k) + ": " + _quote(v) for k, v in self.parameters.items()]
        head = ('{\n  "command": ' + _quote(self.command)
                + ',\n  "parameters": ' + _json_block("{", params, "}", 2)
                + ',\n  "rows": [')

        def block(rows, first):
            sep = ",\n    "
            return (sep[1:] if first else sep) + sep.join(map(_json_row, rows))

        def tail(any_rows):
            failures = _json_block("[", [_quote(f) for f in self.failures], "]", 2)
            return (("\n  ]" if any_rows else "]")
                    + ',\n  "status": ' + _quote(self.status)
                    + ',\n  "failures": ' + failures + "\n}\n")

        return head, block, tail

    def _csv_parts(self, cols):
        """Rows only, LF line endings, a header of the columns."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def lines(records) -> str:
            writer.writerows(records)
            text = buf.getvalue()
            buf.seek(0)
            buf.truncate()
            return text

        def block(rows, first):
            return lines([row.get(c, "") for c in cols] for row in rows)

        return lines([cols]), block, lambda any_rows: ""

    def _markdown_parts(self, cols):
        head = f"# {self.command}\n\n"
        if self.parameters:
            head += "".join(f"- {k}: {v}\n" for k, v in self.parameters.items())
            head += "\n"
        if cols:
            head += "| " + " | ".join(cols) + " |\n"
            head += "|" + "|".join(" --- " for _ in cols) + "|\n"

        def block(rows, first):
            if not cols:  # no table: the rows have no fields
                return ""
            return "".join(
                "| " + " | ".join([row.get(c, "") for c in cols]) + " |\n"
                for row in rows)

        def tail(any_rows):
            return (("\n" if cols else "") + f"status: {self.status}\n"
                    + "".join(f"- FAIL: {f}\n" for f in self.failures))

        return head, block, tail
