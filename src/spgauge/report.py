"""Machine-readable run reports.

Every CLI command builds a Report and writes it as JSON, CSV, or a markdown
table.  All numeric values are carried as exact decimal strings (rationals
as "p/q"), construction order is preserved everywhere, and the output is
byte-stable run to run.  A report is written incrementally, the header,
one write per row or run, the footer, with no buffer of its own, so rows
that come from a generator are never held whole.
The JSON header and footer are json.dumps(..., indent=2) of the fields
around the rows.

A row is a string-to-string dict or a Run, the rows that share a lead of
leading columns.  One routine encodes every row from its format's row
syntax: a run's lead once per run and its tails once per report, so rows
that repeat the same tails cost their distinct cells, not their count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

FORMATS = ("json", "csv", "markdown")


def fmt_int(x: int) -> str:
    return str(int(x))


def fmt_frac(x: Fraction) -> str:
    """Exact string for a rational: "p/q", or just "p" when q == 1."""
    return str(Fraction(x))


def fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def _csv_cell(value: str) -> str:
    """value as csv.writer writes it among other fields."""
    if (value.isascii() and value.isprintable()
            and "," not in value and '"' not in value):
        return value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


class Run(NamedTuple):
    """The rows {**lead, **t} for t in tails.  The keys of lead are the
    leading declared columns of the report, and no tail repeats them.  A
    write encodes each tails object once, found by identity, so runs with
    equal tails should share one object."""

    lead: dict[str, str]
    tails: Sequence[dict[str, str]]


class _Syntax(NamedTuple):
    """A format's row: opener, the cells joined by sep, closer; empty if it
    has no cells.  rowsep goes between rows.  A keyed row is encoded as its
    own items (JSON); otherwise as the report's columns, "" where absent."""

    opener: str
    cell: Callable[[str, str], str]
    sep: str
    closer: str
    empty: str
    rowsep: str = ""
    keyed: bool = False


_SYNTAX = {
    "json": _Syntax("\n    {\n      ", lambda k, v: _quote(k) + ": " + _quote(v),
                    ",\n      ", "\n    }", "\n    {}", ",", keyed=True),
    "csv": _Syntax("", lambda k, v: _csv_cell(v), ",", "\n", "\n"),
    "markdown": _Syntax("| ", lambda k, v: v, " | ", " |\n", ""),
}
# csv.writer quotes the field of a one-field row when it is empty
_LONE_CSV = _SYNTAX["csv"]._replace(cell=lambda k, v: _csv_cell(v) or '""')


class _Encoder:
    """The row encoder of one write.  It turns a row or a run into its lead
    text, which opens every row (the row separator and the lead's cells),
    and the list of texts that end the rows, so the run is
    lead + lead.join(ends).  A plain row is the run of one row with an
    empty lead."""

    def __init__(self, syntax: _Syntax, cols: tuple[str, ...]):
        self.syntax = syntax
        self.cols = cols
        self._ends = {}  # (id(tails), lead length) -> (tails, their ends)

    def end(self, row: dict[str, str], skip: int) -> str:
        """The text of row after a lead of skip cells, all of it if none."""
        s = self.syntax
        items = row.items() if s.keyed else [
            (c, row.get(c, "")) for c in self.cols[skip:]]
        cells = [s.cell(k, v) for k, v in items]
        if skip:
            return "".join([s.sep + c for c in cells]) + s.closer
        return s.opener + s.sep.join(cells) + s.closer if cells else s.empty

    def __call__(self, row) -> tuple[str, list[str]]:
        s = self.syntax
        if not isinstance(row, Run):
            return s.rowsep, [self.end(row, 0)]
        lead, tails = row
        skip = len(lead)
        if tuple(lead) != self.cols[:skip]:
            raise ValueError("a run's lead must be the leading columns")
        key = (id(tails), skip)
        if key not in self._ends:
            if any(k in lead for t in tails for k in t):
                raise ValueError("a run's tail repeats a lead column")
            self._ends[key] = (tails, [self.end(t, skip) for t in tails])
        if skip:  # with no lead, each end opens its own row
            cells = [s.cell(k, v) for k, v in lead.items()]
            return s.rowsep + s.opener + s.sep.join(cells), self._ends[key][1]
        return s.rowsep, self._ends[key][1]


@dataclass
class Report:
    """A command's answer.  rows is a list of string-to-string records whose
    columns are the union of their keys in first-seen order, or, when
    columns declares the fields, any iterable of records and Runs; a report
    whose rows are a one-pass iterable can be written once."""

    command: str
    parameters: dict[str, str]
    rows: Iterable[dict[str, str] | Run]
    failures: list[str] = field(default_factory=list)
    columns: tuple[str, ...] | None = None

    @property
    def status(self) -> str:
        return "ok" if not self.failures else "failed"

    def _columns(self) -> tuple[str, ...]:
        if self.columns is not None:
            return tuple(self.columns)
        if iter(self.rows) is self.rows:
            raise ValueError("a report with streamed rows must declare its columns")
        if any(isinstance(row, Run) for row in self.rows):
            raise ValueError("a report with runs must declare its columns")
        return tuple(dict.fromkeys(key for row in self.rows for key in row))

    def write(self, fmt: str, out: TextIO) -> None:
        """Write the report to out in fmt: the header, then one write per
        row or run, then the footer.  A run is written as one join of its
        ends with its lead; a run with no rows writes nothing."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        cols = self._columns()
        syntax = _LONE_CSV if fmt == "csv" and len(cols) == 1 else _SYNTAX[fmt]
        encode = _Encoder(syntax, cols)
        head, tail = getattr(self, f"_{fmt}_frame")(encode)
        out.write(head)
        first = True
        for row in self.rows:
            lead, ends = encode(row)
            if ends:
                # the first row of the report has no row separator
                out.write((lead[len(syntax.rowsep):] if first else lead)
                          + lead.join(ends))
                first = False
        out.write(tail(not first))

    def render(self, fmt: str) -> str:
        buf = io.StringIO()
        self.write(fmt, buf)
        return buf.getvalue()

    # Each _<fmt>_frame(encode) returns the header text and tail(any_rows),
    # the footer.

    def _json_frame(self, encode):
        head = json.dumps({"command": self.command, "parameters": self.parameters},
                          indent=2)[:-2] + ',\n  "rows": ['

        def tail(any_rows):
            foot = json.dumps({"status": self.status, "failures": self.failures},
                              indent=2)
            return ("\n  ]" if any_rows else "]") + ",\n" + foot[2:] + "\n"

        return head, tail

    def _csv_frame(self, encode):
        """Rows only, LF line endings, a header of the columns."""
        cols = encode.cols
        return encode.end(dict(zip(cols, cols)), 0), lambda any_rows: ""

    def _markdown_frame(self, encode):
        cols = encode.cols
        head = f"# {self.command}\n\n"
        if self.parameters:
            head += "".join(f"- {k}: {v}\n" for k, v in self.parameters.items())
            head += "\n"
        if cols:
            head += encode.end(dict(zip(cols, cols)), 0)
            head += "|" + "|".join(" --- " for _ in cols) + "|\n"

        def tail(any_rows):
            return (("\n" if cols else "") + f"status: {self.status}\n"
                    + "".join(f"- FAIL: {f}\n" for f in self.failures))

        return head, tail
