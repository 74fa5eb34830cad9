"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import spgauge
import spgauge.cli as cli_mod
import spgauge.report as report_mod
from spgauge.cli import _classify_grid, main
from spgauge.gauge import decide_local
from spgauge.phi import PhiResult
from spgauge.report import Report
from test_report import ORACLES, _report_from_json, _written
from spgauge.verify import CheckResult


@pytest.fixture(autouse=True)
def _fresh_leaf_parsers():
    # a leaf's parser lasts as long as the process; each test starts with
    # none built, so that what it sees does not depend on the tests before
    cli_mod._leaf.cache_clear()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_single_rank_markdown(capsys):
    code, out, err = run_cli(capsys, "order", "--n", "2")
    assert code == 0
    assert err == ""
    assert "# order" in out
    assert "| 2 | 40 |" in out
    assert "status: ok" in out


def test_order_sweep_json(capsys):
    code, out, _ = run_cli(capsys, "order", "--max-n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "order"
    assert data["status"] == "ok"
    assert [(r["n"], r["samelson_order"]) for r in data["rows"]] == [
        ("1", "12"), ("2", "40"), ("3", "84"), ("4", "144"),
    ]


def test_order_csv(capsys):
    code, out, _ = run_cli(capsys, "order", "--max-n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [
        {"n": "1", "samelson_order": "12"},
        {"n": "2", "samelson_order": "40"},
    ]
    assert "\r" not in out


def test_order_prints_unpinned_for_an_image_that_pins_no_order(
        monkeypatch, capsys):
    # order prints the image's pinned order and does not judge it; an image
    # whose anchor does not divide a generator pins none, which verify fails
    real = cli_mod.phi_images

    def unpinned_at_two(max_n):
        for res in real(max_n):
            yield PhiResult(2, "series", (40, 140)) if res.n == 2 else res

    monkeypatch.setattr(cli_mod, "phi_images", unpinned_at_two)
    code, out, err = run_cli(capsys, "order", "--max-n", "3", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "n,samelson_order\n1,12\n2,unpinned\n3,84\n"


def test_order_rejects_flag_combinations(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--n", "2", "--max-n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_order_rejects_nonpositive(capsys):
    # the library refuses the rank, and says so
    for flag in ("--n", "--max-n"):
        code, out, err = run_cli(capsys, "order", flag, "0")
        assert code == 2
        assert out == ""
        assert err == "error: rank must be a positive integer, got 0\n"


def test_phi_gens_series(capsys):
    code, out, _ = run_cli(
        capsys, "phi-gens", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["parameters"] == {"n": "3", "backend": "series"}
    gens = [(r["generator"], r["top_coeff"], r["image_gen"]) for r in data["rows"]]
    assert gens == [
        ("zeta1", "1/60", "84"),
        ("xi2", "1/4", "1260"),
        ("xi3", "5/4", "6300"),
    ]
    assert all(r["pinned_order"] == "84" for r in data["rows"])


def test_phi_gens_printed_reports_unpinned(capsys):
    code, out, _ = run_cli(
        capsys, "phi-gens", "--n", "3", "--backend", "printed",
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["image_gen"] for r in data["rows"]] == ["84", "150", "15120"]
    assert all(r["pinned_order"] == "unpinned" for r in data["rows"])


@pytest.mark.parametrize("n, top", [(4, "193/1425600"), (5, "1411/8072064000")])
def test_phi_gens_printed_refuses_a_non_integral_generator(capsys, n, top):
    # past rank 3 the printed convention gives a generator that is not an
    # integer, which is a usage error, not a row
    code, out, err = run_cli(
        capsys, "phi-gens", "--n", str(n), "--backend", "printed")
    assert (code, out) == (2, "")
    assert err == f"error: (2n+1)! * {top} is not an integer at n={n}\n"


def test_classify_sp_single(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "sp", "--n", "2", "--p", "5",
        "--k", "5", "--l", "10", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["outcome"] == "equivalent"
    assert (row["invariant_k"], row["invariant_l"]) == ("5", "5")
    assert row["guards_passed"] == "true"


def test_classify_sp_grid_symmetric(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "sp", "--n", "2", "--p", "5", "--grid",
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert len(rows) == 41 * 41
    verdicts = {(r["k"], r["l"]): r["outcome"] for r in rows}
    for (k, l), outcome in verdicts.items():
        assert verdicts[(l, k)] == outcome
    assert verdicts[("5", "10")] == "equivalent"
    assert verdicts[("1", "5")] == "distinct"


_GRID_COLUMNS = ("k", "l", "outcome", "invariant_k", "invariant_l",
                 "guards_passed")


def _grid_row(n, k, l, p):
    verdict = decide_local(n, k, l, p)
    return {
        "k": str(k),
        "l": str(l),
        "outcome": verdict.outcome.value,
        "invariant_k": str(verdict.invariant_values[0]),
        "invariant_l": str(verdict.invariant_values[1]),
        "guards_passed": "true" if verdict.guards_passed() else "false",
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 7))
def test_grid_rows_equal_decide_local_on_every_pair(n, p):
    text = _written(_classify_grid(n, p), "csv")
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == _GRID_COLUMNS
    b = 4 * n * (2 * n + 1)
    pairs = ((k, l) for k in range(b + 1) for l in range(b + 1))
    count = 0
    for row, (k, l) in zip(reader, pairs, strict=True):
        assert row == _grid_row(n, k, l, p)
        count += 1
    assert count == (b + 1) ** 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", range(1, 5))
def test_grid_output_equals_whole_document_renderers(capsys, n, p):
    b = 4 * n * (2 * n + 1)
    rows = [_grid_row(n, k, l, p) for k in range(b + 1) for l in range(b + 1)]
    params = {"n": str(n), "p": str(p), "grid": f"0..{b}"}
    expected = Report("classify-sp", params, rows)
    for fmt, oracle in ORACLES.items():
        code, out, err = run_cli(capsys, "classify", "sp", "--n", str(n),
                                 "--p", str(p), "--grid", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == oracle(expected)


class _NullSink(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_json_grid_encodes_each_label_and_class_pair_once(monkeypatch):
    # at n = 8, p = 2 the k of [0, 544] fall into 6 classes: the 545 k and
    # 545 l labels and the verdict cells of the 36 pairs of classes are
    # encoded; encoding the 6 * 545 l-and-verdict tails takes about 33,800
    calls = 0
    real = report_mod._quote

    def counted(text):
        nonlocal calls
        calls += 1
        return real(text)

    monkeypatch.setattr(report_mod, "_quote", counted)
    _classify_grid(8, 2).write("json", _NullSink())
    assert 0 < calls < 5 * 545 + 10 * 36


@pytest.mark.parametrize("n,p", [(2, 5), (3, 2), (2, 999999999989)])
def test_grid_tests_p_for_primality_once(capsys, monkeypatch, n, p):
    calls = []
    real = spgauge.arith.is_prime

    def counted(q):
        calls.append(q)
        return real(q)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("spgauge") \
                and getattr(mod, "is_prime", None) is real:
            monkeypatch.setattr(mod, "is_prime", counted)
    code, _, _ = run_cli(capsys, "classify", "sp", "--n", str(n), "--p", str(p),
                         "--grid", "--format", "csv")
    assert code == 0
    assert calls == [p]


def _decimal(text):
    # int() refuses strings past 4,300 digits too, so parse in chunks
    assert text.isdigit()
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_phi_gens_prints_integers_past_the_default_digit_limit(tmp_path):
    # a fresh process has CPython's default 4,300-digit int-to-str limit
    out = tmp_path / "gens.csv"
    code = "import sys; from spgauge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(spgauge.__file__).resolve().parents[1])
    with open(out, "w") as sink:
        proc = subprocess.run(
            [sys.executable, "-c", code, "phi-gens", "--n", "800", "--format", "csv"],
            stdout=sink, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(out) as rows:
        texts = [row["image_gen"] for row in csv.DictReader(rows)]
    assert len(texts) == 800
    anchor = _decimal(texts[0])
    assert anchor == 4 * 800 * 1601
    assert all(_decimal(t) % anchor == 0 for t in texts)
    assert max(map(len, texts)) > 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ["order", "--n", "3"],  # exit 0
    ["order", "--n", "0"],  # exit 2
    ["order", "--n", "2", "--max-n", "4"],  # argparse's SystemExit(2)
])
def test_main_leaves_the_int_to_str_digit_limit_as_it_found_it(capsys, argv):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with contextlib.suppress(SystemExit):
            main(argv)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()


def test_grid_memory_stays_flat():
    # the n = 8 JSON grid is 48 MB of output; streamed, the process stays
    # near its import size.  The child reports its own peak (VmHWM, reset
    # at exec); ru_maxrss from wait4 would carry the peak of this process.
    code = (
        "import sys; from spgauge.cli import main; code = main(sys.argv[1:]); "
        "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM:')],"
        " file=sys.stderr); sys.exit(code)"
    )
    src = str(Path(spgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, "classify", "sp", "--n", "8", "--p", "5",
         "--grid", "--format", "json"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 0
    label, kib, unit = proc.stderr.split()
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(kib) < 64 * 1024


def _cli_process(*argv, timeout):
    code = "import sys; from spgauge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(spgauge.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": src})


def _cli_popen(argv, stdout, unbuffered):
    """The command line in a fresh process, stderr piped, with stdout
    buffered or not."""
    code = "import sys; from spgauge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(spgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


# 141 is 128 + SIGPIPE, what a shell reports for a writer the signal ended
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_stops_after_one_line_ends_the_command_quietly(
        unbuffered):
    # 8 MB of rows, so the writer meets the closed pipe inside the report
    proc = _cli_popen(["classify", "sp", "--n", "8", "--p", "5", "--grid",
                       "--format", "csv"], subprocess.PIPE, unbuffered)
    line = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert line == b"k,l,outcome,invariant_k,invariant_l,guards_passed\n"
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_gone_before_the_report_ends_the_command_quietly(unbuffered):
    # a short report: buffered, it meets the closed pipe at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_popen(["order", "--n", "3"], write_end, unbuffered)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# stdout, stderr and exit code of --help at every parser level and of the
# usage errors argparse reports at each level, captured when every parser
# was constructed up front, and of a leading -- before a command, captured
# from the tree on 3.11.7; COLUMNS=80 fixes the help's width
_SURFACE = json.loads(Path(__file__).with_name("cli_surface.json").read_text())


def _argparse_quotes_choices() -> bool:
    # a patch release of 3.12 and of 3.13 stopped quoting the choices of an
    # invalid-choice error: 3.13.0 prints 'sp', 'spin' and 3.13.13 sp, spin
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as exc:
        probe.parse_args(["b"])
    return "'a'" in str(exc.value)


@pytest.mark.parametrize("case", _SURFACE,
                         ids=["_".join(c["argv"]) or "no-command"
                              for c in _SURFACE])
def test_help_and_usage_errors_print_the_same_bytes(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    stderr = case["stderr"]
    if not _argparse_quotes_choices():
        stderr = case.get("stderr_unquoted", stderr)
    assert (exc.value.code, *capsys.readouterr()) == (
        case["code"], case["stdout"], stderr)


@pytest.mark.parametrize("short,full", [
    (["retractible", "--fam", "Sp", "--n", "2", "--p", "5"],
     ["retractible", "--family", "Sp", "--n", "2", "--p", "5"]),
    (["classify", "sp", "--n", "2", "--p", "5", "--k", "1", "--l", "2",
      "--form", "json"],
     ["classify", "sp", "--n", "2", "--p", "5", "--k", "1", "--l", "2",
      "--format", "json"]),
], ids=["depth-2", "depth-3"])
def test_an_abbreviated_option_prints_the_same_bytes(capsys, short, full):
    # a leaf parser parsing alone still resolves unique prefixes
    printed = run_cli(capsys, *short)
    assert printed[0] == 0 and printed == run_cli(capsys, *full)


# each leaf command and the options its own subcommand adds through
# ArgumentParser.add_argument (order's --n and --max-n go through its
# mutually exclusive group's)
_LEAVES = [
    (["order", "--n", "3"], ["--format"]),
    (["phi-gens", "--n", "3"], ["--n", "--backend", "--format"]),
    (["classify", "sp", "--n", "2", "--p", "5", "--k", "1", "--l", "2"],
     ["--n", "--p", "--k", "--l", "--grid", "--format"]),
    (["classify", "spin", "--n", "3", "--epsilon", "1", "--k", "1", "--l",
      "2", "--p", "5"], ["--n", "--epsilon", "--k", "--l", "--p", "--format"]),
    (["invariant", "--n", "3", "--k", "1"], ["--n", "--k", "--format"]),
    (["retractible", "--family", "Sp", "--n", "3", "--p", "5"],
     ["--family", "--p", "--n", "--format"]),
    (["verify", "--max-n", "2"], ["--max-n", "--jobs", "--format"]),
]


def _path(argv):
    return argv[:2] if argv[0] == "classify" else argv[:1]


def _record_parsers(monkeypatch):
    """The prog of each parser constructed from here on, in order, and the
    names each adds through ArgumentParser.add_argument."""
    built, added = [], []
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def construct(self, *args, **kwargs):
        built.append(kwargs["prog"])
        added.append([])
        init(self, *args, **kwargs)

    def record(self, *names, **kwargs):
        added[-1].extend(names)
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", construct)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
    return built, added


@pytest.mark.parametrize("argv,options", _LEAVES,
                         ids=["-".join(_path(argv)) for argv, _ in _LEAVES])
def test_a_command_constructs_only_the_parsers_it_parses(monkeypatch, argv,
                                                         options):
    built, added = _record_parsers(monkeypatch)
    assert main(argv) == 0
    # the leaf alone, with the prog its subparser in the tree has; no
    # top-level or classify parser is built
    assert built == [" ".join(["spgauge", *_path(argv)])]
    assert added == [["-h", "--help", *options]]
    # a later command of the same leaf, with other options, builds nothing
    assert main([*argv, "--format", "csv"]) == 0
    assert len(built) == 1


# argv with no leaf path in front, or with arguments the leaf leaves over;
# its exit code, the start of what it prints, and the parsers constructed:
# the whole tree, in the order its help lists it, after any leaf that
# left arguments over
_TOP = "usage: spgauge [-h] {order,phi-gens,classify,"
_CLASSIFY = "usage: spgauge classify [-h] {sp,spin}"
_TREE = ["spgauge", "spgauge order", "spgauge phi-gens", "spgauge classify",
         "spgauge classify sp", "spgauge classify spin", "spgauge invariant",
         "spgauge retractible", "spgauge verify"]
_FALLBACKS = [
    ([], 2, _TOP, _TREE),
    (["frobnicate"], 2, _TOP, _TREE),
    (["classify"], 2, _CLASSIFY, _TREE),
    (["classify", "--help"], 0, _CLASSIFY, _TREE),
    (["order", "--n", "3", "--bogus"], 2, _TOP, ["spgauge order", *_TREE]),
]


@pytest.mark.parametrize("argv,code,usage,parsers", _FALLBACKS,
                         ids=["_".join(argv) or "no-command"
                              for argv, *_ in _FALLBACKS])
def test_help_and_errors_above_a_leaf_come_from_the_tree(
        capsys, monkeypatch, argv, code, usage, parsers):
    built, _ = _record_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    # help goes to stdout, a usage error to stderr
    assert (exc.value.code, bool(out), bool(err)) == (code, not code, bool(code))
    assert (out + err).startswith(usage)
    assert built == parsers


@pytest.mark.parametrize("argv", [argv for argv, _ in _LEAVES],
                         ids=["-".join(_path(argv)) for argv, _ in _LEAVES])
def test_a_leaf_parses_as_the_tree_does(argv):
    tree = vars(cli_mod._build_parser().parse_args(argv))
    del tree["command"]
    tree.pop("target", None)
    assert vars(cli_mod._parse_args(argv)) == tree


# a command line's head: each leaf path, alone or after a leading --, no
# command, the classify group alone, an unknown command or a separator;
# then up to 8 words: every leaf's options, abbreviated or with an attached
# value, a separator, -h, good and bad values, an unknown option and a
# stray word
_HEADS = [list(path) for path in cli_mod._COMMANDS] + [
    ["--", *path] for path in cli_mod._COMMANDS] + [
    [], ["classify"], ["frobnicate"], ["--"]]
_WORDS = sorted({option for _, options in _LEAVES for option in options}) + [
    "--form", "--fam", "--n=4", "--", "-h", "1", "2", "5", "Sp", "json", "x",
    "--bogus", "extra"]


# a leading -- before more arguments, which argparse reads as an invalid
# command up to 3.13.0 and as a separator in 3.13.13
_SEPARATOR = next(case for case in _SURFACE if case["argv"][:1] == ["--"])


def _reference(argv):
    """What a fresh tree does with argv, or, for a leading -- before more
    arguments, the invalid-choice error recorded for it, on every Python."""
    if len(argv) > 1 and argv[0] == "--":
        return _SEPARATOR["code"], _SEPARATOR["stdout"], _SEPARATOR["stderr"]
    return _outcome(lambda a: cli_mod._build_parser().parse_args(a), argv)


def _outcome(parse, argv):
    """The namespace parse(argv) returns, less the tree's command and
    target, or the code, stdout and stderr of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    args.pop("command", None)
    args.pop("target", None)
    return args


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_HEADS), st.lists(st.sampled_from(_WORDS), max_size=8))
@example(["order"], ["--n", "3", "--bogus"])
@example(["--", "order"], ["--n", "3"])
def test_any_argv_parses_or_fails_as_the_tree_alone_does(head, words):
    argv = head + words
    build = cli_mod._build_parser
    reached = []

    def tree():
        reached.append(argv)
        return build()

    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with mock.patch.object(cli_mod, "_build_parser", tree):
            got = _outcome(cli_mod._parse_args, argv)
        assert got == _reference(argv)
    # the tree, where a leaf is not enough, only prints and exits
    assert not reached or isinstance(got, tuple)


_SP = ["classify", "sp", "--n", "2", "--p", "5", "--k", "1", "--l", "2"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_HEADS),
                          st.lists(st.sampled_from(_WORDS), max_size=8)),
                min_size=2, max_size=6))
@example([(["invariant"], ["--n", "4", "--k", "1"]),
          (["invariant"], ["--n", "4", "--k", "3"])])
@example([(["order"], ["--n", "3", "--max-n", "4"]), (["order"], ["--n", "3"])])
@example([(_SP, []), (["classify", "sp"], ["-h"]), ([], ["-h"]),
          (["classify", "sp"], ["--n", "2", "--p", "5", "--grid"])])
def test_commands_in_one_process_parse_as_a_fresh_tree_does(lines):
    # each leaf parser, built by the first command that names it, parses
    # every later one as if new: an appended --k, an error or a help before
    # it leaves nothing behind
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for head, words in lines:
            argv = head + words
            assert _outcome(cli_mod._parse_args, argv) == _reference(argv)


def test_help_is_as_wide_as_columns_at_each_command(capsys, monkeypatch):
    # one process prints order's help at 80, 40 and 80 columns: each text is
    # the one a fresh parser prints at that width
    printed = []
    for columns in ("80", "40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["order", "--help"])
        printed.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            cli_mod._build_parser().parse_args(["order", "--help"])
        assert printed[-1] == capsys.readouterr().out
    surface = next(c for c in _SURFACE if c["argv"] == ["order", "--help"])
    assert printed[0] == printed[2] == surface["stdout"] != printed[1]


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"],
                                  ["classify", "sp", "--help"]])
def test_help_to_a_reader_already_gone_ends_the_command_quietly(argv,
                                                                unbuffered):
    # argparse writes the help and raises SystemExit(0) before any report;
    # classify's is the one help a subparser of the tree prints
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_popen(argv, write_end, unbuffered)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_classify_sp_answers_for_a_19_digit_prime_within_seconds():
    proc = _cli_process("classify", "sp", "--n", "2", "--k", "1", "--l", "2",
                        "--p", "1000000000000000009", timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "| 2 | 1 | 2 | 1000000000000000009 | equivalent |" in proc.stdout


def test_classify_sp_refuses_p_at_the_primality_bound():
    proc = _cli_process("classify", "sp", "--n", "2", "--k", "1", "--l", "2",
                        "--p", "3317044064679887385961981", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "3317044064679887385961981" in proc.stderr


def test_classify_sp_grid_conflicts_with_pair(capsys):
    code, _, err = run_cli(
        capsys, "classify", "sp", "--n", "2", "--p", "5",
        "--grid", "--k", "1")
    assert code == 2
    assert "grid" in err


def test_classify_sp_composite_p_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "classify", "sp", "--n", "2", "--p", "6", "--k", "1", "--l", "2")
    assert code == 2
    assert "prime" in err


def test_classify_spin(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "spin", "--n", "3", "--epsilon", "1",
        "--k", "84", "--l", "0", "--p", "7", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["m"] == "7"
    assert row["outcome"] == "equivalent"


def test_classify_spin_guard_failure_is_reported_not_fatal(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "spin", "--n", "4", "--epsilon", "1",
        "--k", "9", "--l", "18", "--p", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["outcome"] == "not-determined"
    assert row["guards_passed"] == "false"
    assert (row["invariant_k"], row["invariant_l"]) == ("9", "9")


def test_invariant_even_rank_columns(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--n", "2", "--k", "0", "--k", "12", "--k", "28",
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    q2 = [r["q2_order"] for r in data["rows"]]
    assert q2 == ["40", "4", "4"]
    first = data["rows"][0]
    assert first["sutherland"] == "10"
    assert first["refined"] == "40"
    assert first["boundary_image_order"] == "1"


def test_invariant_odd_rank_omits_even_only_columns(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--n", "3", "--k", "7", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["sutherland"] == "7"
    assert row["refined"] == "7"
    assert "q2_order" not in row


def test_retractible(capsys):
    code, out, _ = run_cli(
        capsys, "retractible", "--family", "Sp", "--n", "3", "--p", "3",
        "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["retractible"] == "false"
    code, out, _ = run_cli(
        capsys, "retractible", "--family", "E8", "--p", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["retractible"] == "true"


def test_retractible_requires_rank_for_classical(capsys):
    # the library refuses a classical family without a rank; it checks p
    # first, so a p that is not prime is the refusal named
    for family in ("SU", "Sp", "SpinOdd"):
        code, out, err = run_cli(capsys, "retractible", "--family", family,
                                 "--p", "5")
        assert (code, out, err) == (
            2, "", f"error: {family} needs a rank parameter\n")
    code, out, err = run_cli(capsys, "retractible", "--family", "SU",
                             "--p", "4")
    assert (code, out, err) == (2, "", "error: 4 is not prime\n")


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    checks = {r["check"] for r in data["rows"]}
    assert "printed-backend-discrepancy" in checks
    assert "series-surjection-identity" in checks


def test_verify_usage_errors(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "1")
    assert (code, out) == (2, "")
    assert "max_n >= 2" in err
    code, _, err = run_cli(capsys, "verify", "--jobs", "0")
    assert code == 2
    # refused before the sweep forks, with the image commands' message
    code, out, err = run_cli(capsys, "verify", "--max-n", str(2**62))
    assert (code, out, err) == (
        2, "", f"error: (2n+1)! is past the factorial's range at n={2**62}\n")


def test_a_walk_that_raises_is_a_fault_not_a_usage_error():
    # an OutOfRange inside the forked walk, after verify_sweep has checked
    # max_n, is no usage error: the child's traceback and then the parent's
    # ChildProcessError reach stderr, and the process exits 1, not 2
    code = ("import sys, spgauge.verify as v\n"
            "from spgauge.cli import main\n"
            "from spgauge.errors import OutOfRange\n"
            "def walk(max_n):\n"
            "    raise OutOfRange(f'no walk to {max_n}')\n"
            "v.check_image_stream = walk\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(spgauge.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, "verify", "--max-n", "6"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (1, "")
    assert "spgauge.errors.OutOfRange: no walk to 6\n" in done.stderr
    assert done.stderr.endswith(
        "ChildProcessError: the image-stream walk sent 0 bytes and exited "
        "with status 1\n")
    assert "error: " not in done.stderr


def test_verification_failure_exits_one(capsys, monkeypatch):
    import spgauge.verify as verify_mod

    broken = CheckResult("samelson-orders")
    broken.failures.append("n=2: order 39")
    real = verify_mod.check_image_stream

    monkeypatch.setattr(
        verify_mod, "check_image_stream", lambda max_n: (broken, real(max_n)[1]))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "failed"
    assert data["failures"] == ["samelson-orders: n=2: order 39"]


def test_engine_mismatch_in_verify_is_a_failure_not_a_usage_error(
        capsys, monkeypatch):
    from types import SimpleNamespace

    import spgauge.verify as verify_mod

    real = verify_mod.phi_images

    def unpinned_at_5(max_n):
        # a PhiResult reads its pinned order off its generators, so a
        # stand-in with the real rank-5 data reads it as None
        for res in real(max_n):
            if res.n == 5:
                res = SimpleNamespace(n=res.n, backend=res.backend,
                                      lower_gen=res.lower_gen,
                                      upper_gens=res.upper_gens,
                                      pinned_order=None)
            yield res

    monkeypatch.setattr(verify_mod, "phi_images", unpinned_at_5)
    code, out, err = run_cli(capsys, "verify", "--max-n", "6", "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["failures"] == [
        "samelson-orders: series-backend image at n=5 failed to pin the order"]
    orders = [r["n"] for r in data["rows"] if r["check"] == "samelson-orders"]
    assert orders == ["1", "2", "3", "4", "6"]
    # the unpinned rank loses only its orders row; its divisibility check
    # still runs in the same walk
    divisibility, = (r for r in data["rows"]
                     if r["check"] == "scaled-coefficient-divisibility")
    assert (divisibility["pairs"], divisibility["all_divisible"]) == ("15", "true")
    # --jobs is only echoed in the parameters, which CSV leaves out, so a
    # failing sweep prints the same bytes for every value
    serial, pooled = (
        run_cli(capsys, "verify", "--max-n", "6", "--jobs", jobs, "--format", "csv")
        for jobs in ("1", "2"))
    assert serial == pooled
    assert serial[0] == 1


def test_byte_stability_across_runs_and_jobs(capsys):
    outputs = []
    for jobs in ("1", "1", "2"):
        code, out, _ = run_cli(
            capsys, "verify", "--max-n", "2", "--jobs", jobs, "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # worker count must not reorder rows; only the parameter echo may differ,
    # and CSV carries rows only, so the bytes agree completely
    assert outputs[0] == outputs[2]


def test_json_round_trips_through_report(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--n", "4", "--k", "3", "--format", "json")
    assert code == 0
    assert _written(_report_from_json(out), "json") == out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("classify", "sp", "--n", "0", "--p", "5", "--k", "1", "--l", "2"),
    ("classify", "sp", "--n", "-3", "--p", "5", "--k", "1", "--l", "2"),
    ("classify", "sp", "--n", "0", "--p", "5", "--grid"),
    ("classify", "sp", "--n", "-3", "--p", "5", "--grid"),
    ("classify", "sp", "--n", "2", "--p", "4", "--grid"),
    ("classify", "sp", "--n", "2", "--p", "1", "--grid"),
    ("retractible", "--family", "Sp", "--n", "3", "--p", "4"),
    ("retractible", "--family", "Sp", "--n", "3", "--p", "-7"),
    ("retractible", "--family", "G2", "--p", "4"),
    ("retractible", "--family", "E8", "--n", "-3", "--p", "7"),
    ("classify", "sp", "--n", "2", "--p", "5", "--k", "1"),
    ("order", "--max-n", "0"),
])
def test_bad_input_exits_two_with_empty_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_with_jobs_starts_no_process_pool():
    # --jobs is accepted and echoed, but changes nothing: the sweep forks
    # one child of its own, so neither the process-pool module nor
    # multiprocessing is imported, and no child is left once main returns
    code = ("import os, sys; from spgauge.cli import main; "
            "status = main(sys.argv[1:]); "
            "print(status, 'concurrent.futures.process' in sys.modules, "
            "'multiprocessing' in sys.modules, file=sys.stderr)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no-child', file=sys.stderr)\n")
    src = str(Path(spgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code,
         "verify", "--max-n", "3", "--jobs", "2", "--format", "csv"],
        capture_output=True, text=True, check=True, env=env)
    assert done.stderr.split() == ["0", "False", "False", "no-child"]
