"""Unit tests for report construction and writing."""

import csv
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import spgauge.report as report_mod
from spgauge.report import FORMATS, Report, Run, fmt_bool, fmt_frac, fmt_int


def test_formatters():
    assert fmt_int(40) == "40"
    assert fmt_int(-3) == "-3"
    assert fmt_frac(Fraction(1, 60)) == "1/60"
    assert fmt_frac(Fraction(-1, 6)) == "-1/6"
    assert fmt_frac(Fraction(5)) == "5"
    assert fmt_bool(True) == "true"
    assert fmt_bool(False) == "false"


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
    again = _report_from_json(report.render("json"))
    assert again == report
    assert again.render("json") == report.render("json")


def test_json_is_plain_strings():
    data = json.loads(_sample_report().render("json"))
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
    out = report.render("csv")
    lines = out.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2,"
    assert lines[2] == ",3,4"
    assert out.endswith("\n") and "\r" not in out


def test_csv_parses_back():
    report = _sample_report()
    rows = list(csv.DictReader(io.StringIO(report.render("csv"))))
    assert rows == [dict(r) for r in report.rows]


def test_markdown_shape():
    text = _sample_report().render("markdown")
    lines = text.splitlines()
    assert lines[0] == "# order"
    assert "- max_n: 2" in lines
    assert "| n | samelson_order |" in lines
    assert "| 2 | 40 |" in lines
    assert lines[-1] == "status: ok"


def test_markdown_lists_failures():
    report = _sample_report()
    report.failures.append("something broke")
    text = report.render("markdown")
    assert "status: failed" in text
    assert "- FAIL: something broke" in text


def test_render_dispatch_and_unknown_format():
    report = _sample_report()
    for fmt in FORMATS:
        out = io.StringIO()
        report.write(fmt, out)
        assert report.render(fmt) == out.getvalue()
    with pytest.raises(ValueError):
        report.render("yaml")
    assert FORMATS == ("json", "csv", "markdown")


class _Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_small_report_is_one_write_and_large_one_a_write_per_block(fmt):
    out = _Recorder()
    _sample_report().write(fmt, out)
    assert out.writes == 1
    rows = [{"i": str(i)} for i in range(2 * report_mod._BLOCK + 1)]
    out = _Recorder()
    Report("x", {}, rows).write(fmt, out)
    assert out.writes == 3
    assert out.getvalue() == Report("x", {}, rows).render(fmt)


def test_streamed_rows_need_declared_columns():
    with pytest.raises(ValueError):
        Report("x", {}, iter([{"a": "1"}])).render("csv")
    report = Report("x", {}, iter([{"a": "1"}]), columns=("a", "b"))
    assert report.render("csv") == "a,b\n1,\n"


# -- the writer against the whole-document renderers it replaced ------------
#
# These oracles are the renderers as they were before the writer: the whole
# document built in memory, JSON by json.dumps.  The tables take the
# declared columns, if any, else the union of the row keys.


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


def _oracle_table_columns(report):
    if report.columns is not None:
        return list(report.columns)
    return _oracle_columns(report.rows)


def _oracle_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = _oracle_table_columns(report)
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
    cols = _oracle_table_columns(report)
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
        want = oracle(report)
        for block in (1, 2, report_mod._BLOCK):
            with mock.patch.object(report_mod, "_BLOCK", block):
                assert report.render(fmt) == want
                streamed = Report(command, params, iter(rows), failures,
                                  columns=tuple(_oracle_columns(rows)))
                assert streamed.render(fmt) == want


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
    text = report.render("json")
    again = _report_from_json(text)
    assert again == report
    assert again.render("json") == text


# -- runs: rows that share a lead ---------------------------------------------

@st.composite
def _columns_and_rows(draw):
    """Declared columns and rows mixing Runs and plain dicts.  Runs draw
    their tails from a small pool of lists, so one list is often shared by
    several runs, with leads of different lengths; leads run from empty to
    every column."""
    cols = draw(st.lists(_key, unique=True, max_size=4))

    def tail(rest):
        if not rest:
            return st.just({})
        return st.dictionaries(st.sampled_from(rest), _text, max_size=len(rest))

    pool = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(cols)))
        pool.append((i, draw(st.lists(tail(cols[i:]), max_size=4))))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            rows.append(draw(tail(cols)))
            continue
        i, tails = draw(st.sampled_from(pool))
        # the tails fit any lead of at most i columns
        j = draw(st.integers(0, i))
        rows.append(Run({c: draw(_text) for c in cols[:j]}, tails))
    return tuple(cols), rows


def _expand(rows):
    for row in rows:
        if isinstance(row, Run):
            yield from ({**row.lead, **t} for t in row.tails)
        else:
            yield row


_SHARED = [{"b": "x,y", "c": ""}, {"c": '"q"'}, {}]


@settings(max_examples=200, deadline=None)
@given(_columns_and_rows(), _text, st.lists(_text, max_size=3))
# one tails list shared by several runs, and split by small blocks
@example((("a", "b", "c"), [Run({"a": "1"}, _SHARED), {"b": "2"},
                            Run({"a": "é|\n"}, _SHARED)]), "grid", [])
# an empty lead with empty tails: no rows, then one empty row
@example(((), [Run({}, []), Run({}, [{}]), {}]), "", [])
# one tails list after leads of different lengths
@example((("a", "b", "c"), [Run({}, _SHARED), Run({"a": "1"}, _SHARED)]),
         "x", [])
@example((("a",), [Run({}, [])]), "x", ["f"])
# single-column rows, the one cell in the lead or in the tails
@example((("a",), [Run({"a": ""}, [{}, {}]), Run({}, [{"a": ""}, {}])]),
         "x", [])
def test_runs_write_as_their_expanded_rows(columns_and_rows, command, failures):
    cols, rows = columns_and_rows
    params = {"n": "2"}
    expanded = Report(command, params, list(_expand(rows)), failures,
                      columns=cols)
    for fmt, oracle in ORACLES.items():
        want = oracle(expanded)
        for block in (1, 2, report_mod._BLOCK):
            with mock.patch.object(report_mod, "_BLOCK", block):
                report = Report(command, params, rows, failures, columns=cols)
                assert report.render(fmt) == want
                streamed = Report(command, params, iter(rows), failures,
                                  columns=cols)
                assert streamed.render(fmt) == want


def test_runs_are_checked_against_the_columns():
    tails = [{"b": "1"}]
    with pytest.raises(ValueError):  # no declared columns
        Report("x", {}, [Run({"a": "0"}, tails)]).render("csv")
    with pytest.raises(ValueError):  # the lead is not the leading columns
        Report("x", {}, [Run({"b": "0"}, tails)],
               columns=("a", "b")).render("csv")
    with pytest.raises(ValueError):  # a tail repeats a lead column
        Report("x", {}, [Run({"a": "0"}, [{"a": "1"}])],
               columns=("a", "b")).render("json")


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_run_longer_than_a_block_is_split_across_writes(fmt):
    tails = [{"l": str(i)} for i in range(report_mod._BLOCK + 1)]
    rows = [Run({"k": "0"}, tails), Run({"k": "1"}, tails)]
    out = _Recorder()
    Report("x", {}, rows, columns=("k", "l")).write(fmt, out)
    assert out.writes == 3  # 2 * _BLOCK + 2 rows: two full blocks, the rest
    want = ORACLES[fmt](Report("x", {}, list(_expand(rows))))
    assert out.getvalue() == want
