"""Unit tests for report construction and writing."""

import csv
import io
import json
import os
from enum import IntEnum
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from spgauge.errors import OutOfRange
from spgauge.report import FORMATS, Product, Report


def _written(report: Report, fmt: str) -> str:
    out = io.StringIO()
    report.write(fmt, out)
    return out.getvalue()


def _sample_report() -> Report:
    return Report(
        command="order",
        parameters={"max_n": "2"},
        rows=[
            {"n": "1", "samelson_order": "12"},
            {"n": "2", "samelson_order": "40"},
        ],
    )


def test_status_tracks_failures():
    report = _sample_report()
    assert report.status == "ok"
    report.failures.append("boom")
    assert report.status == "failed"


def _report_from_json(text: str) -> Report:
    """The report that json.loads reads back from text; its status must be
    "ok" exactly when it lists no failures."""
    doc = json.loads(text)
    assert (doc["status"] == "ok") == (not doc["failures"])
    return Report(doc["command"], doc["parameters"], doc["rows"], doc["failures"])


def test_json_round_trip():
    report = _sample_report()
    again = _report_from_json(_written(report, "json"))
    assert again == report
    assert _written(again, "json") == _written(report, "json")


def test_json_is_plain_strings():
    data = json.loads(_written(_sample_report(), "json"))
    assert data["status"] == "ok"
    assert data["failures"] == []
    assert all(
        isinstance(k, str) and isinstance(v, str)
        for row in data["rows"] for k, v in row.items()
    )


def test_csv_header_union_in_first_seen_order():
    report = Report(
        command="x",
        parameters={},
        rows=[{"a": "1", "b": "2"}, {"b": "3", "c": "4"}],
    )
    out = _written(report, "csv")
    lines = out.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2,"
    assert lines[2] == ",3,4"
    assert out.endswith("\n") and "\r" not in out


def test_csv_parses_back():
    report = _sample_report()
    rows = list(csv.DictReader(io.StringIO(_written(report, "csv"))))
    assert rows == [dict(r) for r in report.rows]


def test_markdown_shape():
    text = _written(_sample_report(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "# order"
    assert "- max_n: 2" in lines
    assert "| n | samelson_order |" in lines
    assert "| 2 | 40 |" in lines
    assert lines[-1] == "status: ok"


def test_markdown_lists_failures():
    report = _sample_report()
    report.failures.append("something broke")
    text = _written(report, "markdown")
    assert "status: failed" in text
    assert "- FAIL: something broke" in text


def test_render_dispatch_and_unknown_format():
    report = _sample_report()
    for fmt in FORMATS:
        assert _written(report, fmt) == ORACLES[fmt](report)
    out = io.StringIO()
    with pytest.raises(OutOfRange, match="^unknown format 'yaml'"):
        report.write("yaml", out)
    assert out.getvalue() == ""
    assert FORMATS == ("json", "csv", "markdown")


def test_an_iterator_of_rows_raises_value_error():
    for rows in (iter([{"a": "1"}]), iter([]),
                 ({"a": str(i)} for i in range(2))):
        with pytest.raises(OutOfRange, match="a list or tuple of rows"):
            _written(Report("x", {}, rows), "csv")


# -- the writer against the whole-document renderers it replaced ------------
#
# These oracles are the renderers as they were before the writer: the whole
# document built in memory, JSON by json.dumps.  The tables take the union
# of the row keys in first-seen order.


def _oracle_columns(rows):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def _oracle_json(report):
    doc = {
        "command": report.command,
        "parameters": report.parameters,
        "rows": report.rows,
        "status": report.status,
        "failures": report.failures,
    }
    return json.dumps(doc, indent=2) + "\n"


def _oracle_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = _oracle_columns(report.rows)
    writer.writerow(cols)
    for row in report.rows:
        writer.writerow([row.get(c, "") for c in cols])
    return buf.getvalue()


def _oracle_markdown(report):
    lines = [f"# {report.command}", ""]
    if report.parameters:
        for key, val in report.parameters.items():
            lines.append(f"- {key}: {val}")
        lines.append("")
    cols = _oracle_columns(report.rows)
    if cols:
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in report.rows:
            lines.append("| " + " | ".join(row.get(c, "") for c in cols) + " |")
        lines.append("")
    lines.append(f"status: {report.status}")
    for f in report.failures:
        lines.append(f"- FAIL: {f}")
    return "\n".join(lines) + "\n"


ORACLES = {"json": _oracle_json, "csv": _oracle_csv, "markdown": _oracle_markdown}

# any text, with the characters each format treats specially drawn often
_text = st.text(
    alphabet=st.one_of(st.sampled_from(',"|\n\r\\ \t\x00\x7fé€😀'),
                       st.characters()),
    max_size=8,
)
# a small key pool makes rows overlap, so the column union is exercised
_key = st.one_of(st.sampled_from(["k", "l", "n", "a,b", "é"]), _text)
_payload = dict(
    command=_text,
    params=st.dictionaries(_key, _text, max_size=4),
    rows=st.lists(st.dictionaries(_key, _text, max_size=4), max_size=8),
    failures=st.lists(_text, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(**_payload)
def test_writer_equals_whole_document_renderers(command, params, rows, failures):
    report = Report(command, params, rows, failures)
    for fmt, oracle in ORACLES.items():
        assert _written(report, fmt) == oracle(report)


_cell = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\r\n\",|"),
    max_size=8,
)
_plain_key = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=6,
)


@given(
    st.dictionaries(_plain_key, _cell, max_size=4),
    st.lists(st.dictionaries(_plain_key, _cell, min_size=1, max_size=4),
             max_size=5),
    st.lists(_cell, max_size=3),
)
def test_json_round_trip_arbitrary_payload(params, rows, failures):
    report = Report("cmd", params, rows, failures)
    text = _written(report, "json")
    again = _report_from_json(text)
    assert again == report
    assert _written(again, "json") == text


# -- products: every outer lead with every inner lead ------------------------

_CLASSES = st.integers(0, 2)


def _expand(rows):
    for row in rows:
        if isinstance(row, Product):
            yield from ({**a, **b, **row.cells[i, j]}
                        for a, i in row.outer for b, j in row.inner)
        else:
            yield row


@st.composite
def _rows(draw):
    """Rows mixing Products and plain dicts over a pool of up to four keys.
    A product's outer leads hold one or more of the leading columns, the
    columns of the rows before it followed by the keys they lack, and its
    inner leads one or more after them; its classes come from a pool of
    three, so they repeat, and each pair's cells hold any of the other
    keys."""
    keys = draw(st.lists(_key, unique=True, max_size=4))

    def tail(rest):
        if not rest:
            return st.just({})
        return st.dictionaries(st.sampled_from(rest), _text, max_size=len(rest))

    def leads(lead_keys):
        lead = st.tuples(*[_text] * len(lead_keys)).map(
            lambda values: dict(zip(lead_keys, values)))
        return st.lists(st.tuples(lead, _CLASSES), max_size=4)

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if len(keys) < 2 or draw(st.booleans()):
            rows.append(draw(tail(keys)))
            continue
        cols = _oracle_columns(_expand(rows))
        cols += [key for key in keys if key not in cols]
        i = draw(st.integers(1, len(cols) - 1))
        j = draw(st.integers(i + 1, len(cols)))
        cells = {(r, c): draw(tail(cols[j:])) for r in range(3) for c in range(3)}
        rows.append(Product(draw(leads(cols[:i])), draw(leads(cols[i:j])), cells))
    return rows


def _cells(text):
    """Cells for every pair of the classes 0..2, row class by column class."""
    return {(r, c): {"c": f"{text}{r}{c}"} for r in range(3) for c in range(3)}


@settings(max_examples=200, deadline=None)
@given(_rows(), _text, st.lists(_text, max_size=3))
# classes repeat in both leads, among plain rows, with text to escape
@example([
    Product([({"a": "1"}, 0), ({"a": "é|\n"}, 1), ({"a": ""}, 0)],
            [({"b": "x,y"}, 2), ({"b": '"q"'}, 0), ({"b": "z"}, 2)],
            _cells("v")),
    {"b": "2"},
    Product([({"a": "2"}, 2)], [({"b": "w"}, 1)], _cells(",")),
], "grid", [])
# products with no outer or no inner leads write no rows; then an empty row
@example([Product([], [({"b": "1"}, 0)], {}),
          Product([({"a": "1"}, 0)], [], {}), {}], "", [])
# every column in the leads, so the cells are empty
@example([Product([({"a": "1"}, 0), ({"a": "2"}, 1)], [({"b": ""}, 1)],
                  {(0, 1): {}, (1, 1): {}})], "x", ["f"])
# leads of two columns each, and cells that leave columns out
@example([
    Product([({"a": "1", "b": ""}, 0)], [({"c": "", "d": "4"}, 0)],
            {(0, 0): {}}),
    Product([({"a": "", "b": "2"}, 0)], [({"c": "3", "d": ""}, 0)],
            {(0, 0): {"e": ""}}),
], "x", [])
# a plain row ahead names the leads' columns; the cells add theirs in the
# order the rows meet them, and a pair no row meets adds none
@example([
    {"b": "0", "a": ""},
    Product([({"b": "1"}, 1), ({"b": "2"}, 0)],
            [({"a": "x"}, 1), ({"a": "y"}, 0)],
            {(0, 0): {"d": "p"}, (0, 1): {}, (1, 0): {"e": ""},
             (1, 1): {"c": "q"}, (2, 2): {"f": "unmet"}}),
], "x", [])
def test_runs_write_as_their_expanded_rows(rows, command, failures):
    params = {"n": "2"}
    expanded = Report(command, params, list(_expand(rows)), failures)
    report = Report(command, params, rows, failures)
    for fmt, oracle in ORACLES.items():
        assert _written(report, fmt) == oracle(expanded)


_BAD_PRODUCTS = [
    # an outer lead that is not the leading columns: a plain row leads
    [{"a": "0"}, Product([({"b": "0"}, 0)], [({"a": "1"}, 0)], {(0, 0): {}})],
    # outer leads of different columns
    [Product([({"a": "0"}, 0), ({"a": "0", "b": "1"}, 0)], [({"c": "1"}, 0)],
             {(0, 0): {}})],
    # an empty outer lead
    [Product([({}, 0)], [({"a": "1"}, 0)], {(0, 0): {}})],
    # an empty inner lead
    [Product([({"a": "0"}, 0)], [({}, 0)], {(0, 0): {"b": "1"}})],
    # an inner lead that is not the columns after the outer lead
    [{"a": "", "b": ""},
     Product([({"a": "0"}, 0)], [({"c": "1"}, 0)], {(0, 0): {}})],
    # cells that repeat a lead column
    [Product([({"a": "0"}, 0)], [({"b": "1"}, 0)], {(0, 0): {"a": "1"}})],
]


def test_runs_are_checked_against_the_columns():
    for rows in _BAD_PRODUCTS:
        for fmt in FORMATS:
            with pytest.raises(OutOfRange, match="^a product's "):
                _written(Report("x", {}, rows), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_row_is_one_write(fmt):
    rows = [{"k": str(i), "l": "a,b" if i % 2 else ""} for i in range(5)]
    want = ORACLES[fmt](Report("x", {"n": "2"}, rows))
    writes = []
    out = SimpleNamespace(write=writes.append)
    Report("x", {"n": "2"}, rows).write(fmt, out)
    # the header, one write per row, the footer
    assert len(writes) == len(rows) + 2
    assert "".join(writes) == want
    # the documents of the first i rows and of one row more agree up to the
    # end of row i - 1, where the footer of the one and the next row of the
    # other begin: the header and rows 0..i-1 are the first i + 1 writes
    more = {"k": "5", "l": ""}
    for i in range(1, len(rows) + 1):
        docs = [ORACLES[fmt](Report("x", {"n": "2"}, rows[:i] + extra))
                for extra in ([], [more])]
        assert "".join(writes[:i + 1]) == os.path.commonprefix(docs)


# -- values: the report writes each kind of value as its exact text ----------

# a value of each kind a cell or a parameter may be, and the text written
_TEXTS = [
    (-3, "-3"), (0, "0"), (10**300 - 1, "9" * 300),
    (True, "true"), (False, "false"),
    (Fraction(1, 60), "1/60"), (Fraction(-1, 6), "-1/6"), (Fraction(5), "5"),
    ("a,b", "a,b"), ("", ""),
]


def test_values_are_written_as_their_exact_text():
    keys = [f"c{i}" for i in range(len(_TEXTS))]
    values, texts = zip(*_TEXTS)
    typed = dict(zip(keys, values))
    written = dict(zip(keys, texts))
    # a product's leads and cells go through the same routine
    grid = Product([({"k": 0}, 0), ({"k": -1}, 1)], [({"l": True}, 0)],
                   {(0, 0): {"v": Fraction(1, 60)}, (1, 0): {"v": 5}})
    report = Report("x", typed, [grid, typed], ["f"])
    want = Report("x", written, [{"k": "0", "l": "true", "v": "1/60"},
                                 {"k": "-1", "l": "true", "v": "5"}, written],
                  ["f"])
    for fmt in FORMATS:
        assert _written(report, fmt) == ORACLES[fmt](want)


_BAD_VALUE = "^a report value must be a str, bool, int or Fraction, got "


class _Five(IntEnum):
    FIVE = 5


# an IntEnum member is an int, but its text differs between Python versions
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bad", [40.0, 0.5, float("nan"), None, 1j, b"1",
                                 pytest.param(_Five.FIVE, id="IntEnum")])
def test_a_value_of_another_type_raises_value_error(fmt, bad):
    # a parameter before anything is written, a cell when its row is reached
    out = io.StringIO()
    with pytest.raises(OutOfRange, match=_BAD_VALUE):
        Report("x", {"n": 2, "p": bad}, [{"a": 1}]).write(fmt, out)
    assert out.getvalue() == ""
    for rows in ([{"a": 1}, {"a": bad}],
                 [Product([({"k": 1}, 0)], [({"l": bad}, 0)], {(0, 0): {}})],
                 [Product([({"k": 1}, 0)], [({"l": 2}, 0)],
                          {(0, 0): {"v": bad}})]):
        with pytest.raises(OutOfRange, match=_BAD_VALUE):
            _written(Report("x", {"n": 2}, rows), fmt)
