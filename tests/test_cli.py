"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spgauge
from spgauge.cli import _classify_grid, main
from spgauge.gauge import decide_local
from spgauge.report import Report
from spgauge.verify import CheckResult


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


def test_order_rejects_flag_combinations(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--n", "2", "--max-n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_order_rejects_nonpositive(capsys):
    code, out, err = run_cli(capsys, "order", "--n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 7))
def test_grid_rows_equal_decide_local_on_every_pair(n, p):
    report = _classify_grid(n, p)
    b = 4 * n * (2 * n + 1)
    pairs = ((k, l) for k in range(b + 1) for l in range(b + 1))
    count = 0
    for row, (k, l) in zip(report.rows, pairs, strict=True):
        verdict = decide_local(n, k, l, p)
        assert row == {
            "k": str(k),
            "l": str(l),
            "outcome": verdict.outcome.value,
            "invariant_k": str(verdict.invariant_values[0]),
            "invariant_l": str(verdict.invariant_values[1]),
            "guards_passed": "true" if verdict.guards_passed() else "false",
        }
        count += 1
    assert count == (b + 1) ** 2
    assert report.columns == tuple(row)


def test_grid_memory_stays_flat():
    # the n = 8 JSON grid is 48 MB of output; streamed, the process stays
    # near its import size
    code = "import sys; from spgauge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(spgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "classify", "sp", "--n", "8", "--p", "5",
         "--grid", "--format", "json"],
        stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 64 * 1024  # KiB on Linux


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
    code, _, err = run_cli(capsys, "retractible", "--family", "SU", "--p", "5")
    assert code == 2
    assert "--n" in err


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    checks = {r["check"] for r in data["rows"]}
    assert "printed-backend-discrepancy" in checks
    assert "smith-normal-form-random" in checks


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "1")
    assert code == 2
    assert "max-n" in err
    code, _, err = run_cli(capsys, "verify", "--jobs", "0")
    assert code == 2


def test_verification_failure_exits_one(capsys, monkeypatch):
    import spgauge.verify as verify_mod

    broken = CheckResult("samelson-orders")
    broken.failures.append("n=2: order 39")

    monkeypatch.setattr(
        verify_mod, "check_samelson_orders", lambda max_n, jobs=1: broken)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "failed"
    assert data["failures"] == ["samelson-orders: n=2: order 39"]


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
    report = Report.from_json(out)
    assert report.render("json") == out


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
])
def test_bad_input_exits_two_with_empty_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_cli_import_leaves_process_pool_unloaded():
    # the pool is imported only when verify runs with --jobs > 1
    code = ("import sys, spgauge.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    src = str(Path(spgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
