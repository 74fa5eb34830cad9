"""Byte-for-byte golden outputs of the command line.

Each file under tests/golden/ is the stdout of one command in one format;
the command must keep printing exactly these bytes.
"""

from pathlib import Path

import pytest

from spgauge.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "order_max_n_30": ("order", "--max-n", "30"),
    "phi_gens_n_12": ("phi-gens", "--n", "12"),
    "phi_gens_n_3_printed": ("phi-gens", "--n", "3", "--backend", "printed"),
    "verify_max_n_6_jobs_1": ("verify", "--max-n", "6", "--jobs", "1"),
    "verify_max_n_6_jobs_2": ("verify", "--max-n", "6", "--jobs", "2"),
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
