"""Machine-readable run reports.

Every CLI command builds a Report and writes it as JSON, CSV, or a markdown
table.  Its cells and parameters are the library's exact values, and the
writer alone turns them into text: a str as is, a bool as true or false,
an int in decimal, a Fraction as "p/q" ("p" when q = 1); anything else
raises OutOfRange.  Construction order is preserved everywhere, and the
output is byte-stable run to run.  A report is written incrementally, the
header, one write per row or per run of a Product, the footer, with no
buffer of its own.  The JSON header and footer are json.dumps(...,
indent=2) of the fields around the rows.

A row is a dict from column names to values or a Product, the rows of
every outer lead paired with every inner lead and ended by the cells of
their classes.  One routine encodes every row from its format's row
syntax, turning each value into text as it goes.  A product's
inner leads and the cells of each pair of classes are encoded once per
write, each outer class's row ends are made from them by one C-level map,
and each outer lead is one join of its rows, so a product costs its
distinct cells and one join per outer lead, not its row count.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import add
from typing import (Callable, Hashable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence, TextIO)

from .errors import OutOfRange

FORMATS = ("json", "csv", "markdown")


# what a cell or a parameter may be
Value = str | bool | int | Fraction


def _text(value: Value) -> str:
    """value as the report writes it.  A bool is an int too, but is written
    as true or false; any other subclass of int raises, as the text of one
    (an IntEnum member's) differs between Python versions."""
    if isinstance(value, str):
        return value
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int or isinstance(value, Fraction):
        return str(value)
    raise OutOfRange(f"a report value must be a str, bool, int or Fraction, "
                     f"got {type(value).__name__} {value!r}")


def _csv_cell(value: str) -> str:
    """value as csv.writer writes it among other fields."""
    if (value.isascii() and value.isprintable()
            and "," not in value and '"' not in value):
        return value
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


class Product(NamedTuple):
    """The rows {**a, **b, **cells[i, j]} for each (a, i) in outer and,
    within it, each (b, j) in inner: every outer lead meets every inner
    lead, and the cells of their classes i and j end the row.  Every outer
    lead holds the same leading columns of the report, every inner lead the
    same columns after them, at least one each, and no cells repeat them.  A
    write encodes each inner lead once and the cells of each pair of
    classes once, and writes the rows of each outer lead, its run, as one
    text."""

    outer: Sequence[tuple[dict[str, Value], Hashable]]
    inner: Sequence[tuple[dict[str, Value], Hashable]]
    cells: Mapping[tuple[Hashable, Hashable], dict[str, Value]]


def _keys(row: dict[str, Value] | Product) -> Iterable[str]:
    """The keys of row; a Product's are those of the rows it stands for: its
    first outer lead's, its first inner lead's, then its cells' for each
    pair of classes in the order its rows meet them."""
    if not isinstance(row, Product):
        return row
    outer, inner, cells = row
    if not (outer and inner):
        return ()
    classes = dict.fromkeys(c for _, c in inner)
    return chain(outer[0][0], inner[0][0],
                 *(cells[r, c] for r in dict.fromkeys(r for _, r in outer)
                   for c in classes))


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
    """The row encoder of one write.  It turns a row into the texts that
    write it, each opened by the row separator: one for a plain row, one
    per run for a Product."""

    def __init__(self, syntax: _Syntax, cols: tuple[str, ...]):
        self.syntax = syntax
        self.cols = cols

    def cells(self, row: dict[str, Value], start: int = 0,
              stop: int | None = None) -> list[str]:
        """The encoded cells of row: its own items when the syntax is keyed,
        otherwise the report's columns start:stop, "" where absent."""
        s = self.syntax
        items = row.items() if s.keyed else [
            (c, row.get(c, "")) for c in self.cols[start:stop]]
        return [s.cell(k, _text(v)) for k, v in items]

    def row(self, row: dict[str, Value]) -> str:
        """The text of a whole row, without the row separator."""
        s = self.syntax
        cells = self.cells(row)
        return s.opener + s.sep.join(cells) + s.closer if cells else s.empty

    def __call__(self, row) -> Iterable[str]:
        if isinstance(row, Product):
            return self._runs(row)
        return (self.syntax.rowsep + self.row(row),)

    def _runs(self, product: Product) -> Iterator[str]:
        """Each outer lead's run: the lead's text, which opens every row
        (the row separator and the lead's cells), joined with the texts
        that end the rows of its class.  Those ends are the inner leads'
        cells each followed by the cells of its pair of classes, added in
        C once per outer class."""
        s = self.syntax
        outer, inner, cells = product
        if not (outer and inner):
            return
        i = len(outer[0][0])
        j = i + len(inner[0][0])
        head, mid = self.cols[:i], self.cols[i:j]
        if (not 0 < i < j or any(tuple(a) != head for a, _ in outer)
                or any(tuple(b) != mid for b, _ in inner)):
            raise OutOfRange("a product's outer and inner leads must each be "
                             "the same leading columns, at least one")
        leading = set(self.cols[:j])
        mids = [s.sep + s.sep.join(self.cells(b, i, j)) for b, _ in inner]
        classes = [c for _, c in inner]
        ends = {}  # outer class -> the texts that end its rows
        for r in dict.fromkeys(r for _, r in outer):
            tails = {}
            for c in dict.fromkeys(classes):
                tail = cells[r, c]
                if not leading.isdisjoint(tail):
                    raise OutOfRange("a product's cells repeat a lead column")
                tails[c] = "".join(
                    [s.sep + x for x in self.cells(tail, j)]) + s.closer
            ends[r] = list(map(add, mids, map(tails.__getitem__, classes)))
        for a, r in outer:
            lead = s.rowsep + s.opener + s.sep.join(self.cells(a, 0, i))
            yield lead + lead.join(ends[r])


@dataclass
class Report:
    """A command's answer.  rows is a list or tuple of records, each from
    column names to values, and Products, and the columns are their keys in
    first-seen order.  OutOfRange unless command is a str, parameters a
    dict, rows a list or tuple and failures a list of str."""

    command: str
    parameters: dict[str, Value]
    rows: Sequence[dict[str, Value] | Product]
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        fields = (self.command, self.parameters, self.rows, self.failures)
        if not (all(map(isinstance, fields, (str, dict, (list, tuple), list)))
                and all(isinstance(f, str) for f in self.failures)):
            raise OutOfRange(
                "a report needs a str command, a dict of parameters, a list "
                "or tuple of rows and a list of str failures, got "
                + ", ".join(type(x).__name__ for x in fields))

    @property
    def status(self) -> str:
        return "ok" if not self.failures else "failed"

    def write(self, fmt: str, out: TextIO) -> None:
        """Write the report to out in fmt: the header, then one write per
        row and one per run of a Product, then the footer.  A Product with
        no outer or no inner leads writes nothing.  A parameter that is not
        a Value raises OutOfRange before anything is written, a cell when
        its row is reached."""
        if fmt not in FORMATS:
            raise OutOfRange(f"unknown format {fmt!r}; expected one of {FORMATS}")
        cols = tuple(dict.fromkeys(key for row in self.rows
                                   for key in _keys(row)))
        params = {k: _text(v) for k, v in self.parameters.items()}
        syntax = _LONE_CSV if fmt == "csv" and len(cols) == 1 else _SYNTAX[fmt]
        encode = _Encoder(syntax, cols)
        head, tail = getattr(self, f"_{fmt}_frame")(encode, params)
        out.write(head)
        first = True
        for row in self.rows:
            for text in encode(row):
                # the first row of the report has no row separator
                out.write(text[len(syntax.rowsep):] if first else text)
                first = False
        out.write(tail(not first))

    # Each _<fmt>_frame(encode, params), params being the parameters' texts,
    # returns the header text and tail(any_rows), the footer.

    def _json_frame(self, encode, params):
        head = json.dumps({"command": self.command, "parameters": params},
                          indent=2)[:-2] + ',\n  "rows": ['

        def tail(any_rows):
            foot = json.dumps({"status": self.status, "failures": self.failures},
                              indent=2)
            return ("\n  ]" if any_rows else "]") + ",\n" + foot[2:] + "\n"

        return head, tail

    def _csv_frame(self, encode, params):
        """Rows only, LF line endings, a header of the columns."""
        cols = encode.cols
        return encode.row(dict(zip(cols, cols))), lambda any_rows: ""

    def _markdown_frame(self, encode, params):
        cols = encode.cols
        head = f"# {self.command}\n\n"
        if params:
            head += "".join(f"- {k}: {v}\n" for k, v in params.items())
            head += "\n"
        if cols:
            head += encode.row(dict(zip(cols, cols)))
            head += "|" + "|".join(" --- " for _ in cols) + "|\n"

        def tail(any_rows):
            return (("\n" if cols else "") + f"status: {self.status}\n"
                    + "".join(f"- FAIL: {f}\n" for f in self.failures))

        return head, tail
