"""Unit tests for report construction and rendering."""

import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    again = Report.from_json(report.to_json())
    assert again == report
    assert again.to_json() == report.to_json()


def test_json_is_plain_strings():
    data = json.loads(_sample_report().to_json())
    assert data["status"] == "ok"
    assert data["failures"] == []
    assert all(
        isinstance(k, str) and isinstance(v, str)
        for row in data["rows"] for k, v in row.items()
    )


def test_json_dict_passes_rows_through_uncopied():
    report = _sample_report()
    doc = report.to_json_dict()
    assert doc["rows"] is report.rows
    assert report.to_json() == json.dumps(doc, indent=2) + "\n"


def test_from_json_rejects_inconsistent_status():
    doc = _sample_report().to_json_dict()
    doc["status"] = "failed"
    with pytest.raises(ValueError):
        Report.from_json(json.dumps(doc))


def test_csv_header_union_in_first_seen_order():
    report = Report(
        command="x",
        parameters={},
        rows=[{"a": "1", "b": "2"}, {"b": "3", "c": "4"}],
    )
    out = report.to_csv()
    lines = out.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2,"
    assert lines[2] == ",3,4"
    assert out.endswith("\n") and "\r" not in out


def test_csv_parses_back():
    report = _sample_report()
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert rows == [dict(r) for r in report.rows]


def test_markdown_shape():
    text = _sample_report().to_markdown()
    lines = text.splitlines()
    assert lines[0] == "# order"
    assert "- max_n: 2" in lines
    assert "| n | samelson_order |" in lines
    assert "| 2 | 40 |" in lines
    assert lines[-1] == "status: ok"


def test_markdown_lists_failures():
    report = _sample_report()
    report.failures.append("something broke")
    text = report.to_markdown()
    assert "status: failed" in text
    assert "- FAIL: something broke" in text


def test_render_dispatch_and_unknown_format():
    report = _sample_report()
    assert report.render("json") == report.to_json()
    assert report.render("csv") == report.to_csv()
    assert report.render("markdown") == report.to_markdown()
    with pytest.raises(ValueError):
        report.render("yaml")
    assert FORMATS == ("json", "csv", "markdown")


_cell = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\r\n\",|"),
    max_size=8,
)
_key = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=6,
)


@given(
    st.dictionaries(_key, _cell, max_size=4),
    st.lists(st.dictionaries(_key, _cell, min_size=1, max_size=4), max_size=5),
)
def test_json_round_trip_arbitrary_payload(params, rows):
    report = Report("cmd", params, rows)
    assert Report.from_json(report.to_json()) == report
