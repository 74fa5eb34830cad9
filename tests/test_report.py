"""Unit tests for report construction and writing."""

import csv
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import spgauge.report as report_mod
from spgauge.report import FORMATS, Report, fmt_bool, fmt_frac, fmt_int


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


def test_json_round_trip():
    report = _sample_report()
    again = Report.from_json(report.render("json"))
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


def test_from_json_rejects_inconsistent_status():
    doc = json.loads(_sample_report().render("json"))
    doc["status"] = "failed"
    with pytest.raises(ValueError):
        Report.from_json(json.dumps(doc))


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
# document built in memory, JSON by json.dumps.


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
)
def test_json_round_trip_arbitrary_payload(params, rows):
    report = Report("cmd", params, rows)
    assert Report.from_json(report.render("json")) == report
