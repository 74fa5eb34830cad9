"""Byte-for-byte golden outputs of the command line.

Each file under tests/golden/ is the stdout of one command in one format;
the command must keep printing exactly these bytes.
"""

from pathlib import Path

import pytest

from spgauge.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "classify_sp_n_2_p_5_grid": ("classify", "sp", "--n", "2", "--p", "5",
                                 "--grid"),
    "classify_sp_n_3_p_2_grid": ("classify", "sp", "--n", "3", "--p", "2",
                                 "--grid"),
    "classify_sp_n_4_p_3_pair": ("classify", "sp", "--n", "4", "--p", "3",
                                 "--k", "6", "--l", "-18"),
    "classify_sp_n_4_p_999999999989_pair": ("classify", "sp", "--n", "4",
                                            "--p", "999999999989",
                                            "--k", "6", "--l", "-18"),
    "classify_spin_n_4": ("classify", "spin", "--n", "4", "--epsilon", "1",
                          "--k", "6", "--l", "12", "--p", "5"),
    "invariant_n_3": ("invariant", "--n", "3", "--k", "0", "--k", "7"),
    "invariant_n_4": ("invariant", "--n", "4", "--k", "0", "--k", "1",
                      "--k", "5", "--k", "-840"),
    "order_max_n_30": ("order", "--max-n", "30"),
    "phi_gens_n_12": ("phi-gens", "--n", "12"),
    "phi_gens_n_3_printed": ("phi-gens", "--n", "3", "--backend", "printed"),
    "retractible_sp_n_3_p_5": ("retractible", "--family", "Sp", "--n", "3",
                               "--p", "5"),
    "retractible_sp_n_3_p_999999999989": ("retractible", "--family", "Sp",
                                          "--n", "3", "--p", "999999999989"),
    "verify_max_n_6_jobs_1": ("verify", "--max-n", "6", "--jobs", "1"),
    "verify_max_n_6_jobs_2": ("verify", "--max-n", "6", "--jobs", "2"),
    "verify_max_n_200": ("verify", "--max-n", "200", "--jobs", "1"),
}
EXTENSIONS = {"markdown": "md", "csv": "csv", "json": "json"}


@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_bytes(capsys, name, fmt):
    code = main([*COMMANDS[name], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / f"{name}.{EXTENSIONS[fmt]}").read_bytes()
    assert out.encode() == expected
