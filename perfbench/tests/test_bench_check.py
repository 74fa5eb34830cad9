"""Each check accepts the program's real output and rejects a deliberately
wrong row, generator or invariant."""

import io
from contextlib import redirect_stdout

import pytest

import check
from workloads import Op

import spgauge.cli as cli


def program_output(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def replay(op, text):
    def run(argv, sink):
        sink.write(text)
        return 0
    return check.check_op(op, run)[1]


def fmt_args(fmt):
    return () if fmt == "markdown" else ("--format", fmt)


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_grid_rows(fmt):
    argv = ("classify", "sp", "--n", "2", "--p", "5", "--grid") + fmt_args(fmt)
    op = Op("grid", argv, params={"n": 2, "p": 5, "format": fmt})
    text = program_output(argv)
    assert replay(op, text) == []
    # one verdict flipped
    assert replay(op, text.replace("distinct", "equivalent", 1))
    # one invariant value changed
    assert replay(op, text.replace("\"5\"", "\"25\"", 1) if fmt == "json"
                  else text.replace(" 5 |", " 25 |", 1) if fmt == "markdown"
                  else text.replace(",5,", ",25,", 1))


def test_grid_row_missing_or_out_of_order():
    argv = ("classify", "sp", "--n", "2", "--p", "3", "--grid", "--format", "csv")
    op = Op("grid", argv, params={"n": 2, "p": 3, "format": "csv"})
    lines = program_output(argv).splitlines(keepends=True)
    assert replay(op, "".join(lines)) == []
    assert replay(op, "".join(lines[:5] + lines[6:]))
    assert replay(op, "".join(lines[:5] + [lines[6], lines[5]] + lines[7:]))


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_phi_generators(fmt):
    argv = ("phi-gens", "--n", "3", "--backend", "series") + fmt_args(fmt)
    op = Op("phi-gens", argv, params={"n": 3, "backend": "series", "format": fmt})
    text = program_output(argv)
    assert replay(op, text) == []
    assert replay(op, text.replace("1260", "1261"))
    assert replay(op, text.replace("5/4", "3/4"))


def test_printed_backend_is_unpinned_at_rank_three():
    argv = ("phi-gens", "--n", "3", "--backend", "printed")
    op = Op("phi-gens", argv, params={"n": 3, "backend": "printed", "format": "markdown"})
    text = program_output(argv)
    assert "unpinned" in text and replay(op, text) == []
    assert replay(op, text.replace("150", "168"))


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_invariant_columns(fmt):
    argv = ("invariant", "--n", "4", "--k", "1", "--k", "0") + fmt_args(fmt)
    op = Op("invariant", argv, params={"n": 4, "ks": [1, 0], "format": fmt})
    text = program_output(argv)
    assert replay(op, text) == []
    assert replay(op, text.replace("840", "841", 1))     # q2_order
    assert replay(op, text.replace("120960", "120961", 1))  # factorial form


def test_single_verdicts_orders_and_registry():
    argv = ("classify", "sp", "--n", "2", "--p", "5", "--k", "5", "--l", "10")
    op = Op("classify-sp", argv, params={"n": 2, "p": 5, "k": 5, "l": 10, "format": "markdown"})
    text = program_output(argv)
    assert "equivalent" in text and replay(op, text) == []
    assert replay(op, text.replace("equivalent", "distinct"))

    argv = ("classify", "spin", "--n", "3", "--epsilon", "1", "--k", "84", "--l", "0",
            "--p", "7")
    op = Op("classify-spin", argv, params={"n": 3, "epsilon": 1, "p": 7, "k": 84, "l": 0,
                                           "format": "markdown"})
    text = program_output(argv)
    assert replay(op, text) == []
    assert replay(op, text.replace("| 7 |", "| 49 |", 1))

    argv = ("order", "--max-n", "4", "--format", "csv")
    op = Op("order", argv, params={"max_n": 4, "format": "csv"})
    text = program_output(argv)
    assert replay(op, text) == []
    assert replay(op, text.replace("144", "145"))

    argv = ("retractible", "--family", "Sp", "--n", "3", "--p", "3")
    op = Op("retractible", argv, params={"family": "Sp", "n": 3, "p": 3, "format": "markdown"})
    text = program_output(argv)
    assert "false" in text and replay(op, text) == []
    assert replay(op, text.replace("false", "true"))


def test_verify_tail_and_prime_certificates():
    assert check.check_verify(0, "| x |\n\nstatus: ok\n") == []
    assert check.check_verify(0, "status: failed\n- FAIL: x\n")
    assert check.check_verify(1, "status: ok\n")
    assert check.certify_primes([1000000000039, 3]) == []
    assert check.certify_primes([91])
