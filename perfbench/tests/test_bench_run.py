"""A run's verdict: only the bad-input commands may fail with `correct` true,
and a bad-input command that is rejected is checked, not replayed."""

import spgauge.cli as cli

import run
from sink import HashSink
from workloads import BAD_INPUT, Op


def timed(argv):
    """One timed result as measure() records it."""
    sink = HashSink()
    rc = run.run_op(cli, argv, sink)
    return (0.001, rc, sink.digest(), sink.tail)


def test_rejected_bad_input_passes():
    # valid input the program rejects today: it exits 2 and prints to stderr
    argv = ("phi-gens", "--n", "4", "--backend", "printed")
    result = timed(argv)
    assert result[1] == 2 and result[2][1] == 0
    assert run.check(cli, [Op("bad-input", argv, expect_rc=2)], [[result]]) == []


def test_rejected_bad_input_that_prints_fails():
    op = Op("bad-input", BAD_INPUT[0], expect_rc=2)
    errors = run.check(cli, [op], [[(0.001, 2, (123, 40), "x")]])
    assert errors and "printed 40 bytes" in errors[0]


def test_accepted_bad_input_is_only_counted():
    op = Op("bad-input", BAD_INPUT[2], expect_rc=2)
    assert run.check(cli, [op], [[timed(BAD_INPUT[2])]]) == []


def test_failing_good_command_is_a_check_error():
    argv = ("order", "--n", "3")
    op = Op("order", argv, params={"n": 3, "format": "markdown"})
    good = timed(argv)
    assert run.check(cli, [op], [[good], [good]]) == []
    for bad in (2, -1):
        errors = run.check(cli, [op], [[good], [(0.001, bad, (0, 0), "")]])
        assert any(e.endswith(f"exited {bad}") for e in errors)
