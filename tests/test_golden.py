"""Byte-for-byte golden outputs of the command line.

Each file under tests/golden/ is the stdout of one command in one format;
the command must keep printing exactly these bytes.
"""

import hashlib
import io
from contextlib import redirect_stdout
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


# SHA-256 of the stdout of classify sp --n N --p P --grid --format FMT, taken
# before the grid was written as a report.Product.  (8, 2) has 6 classes of
# k, (3, 2) has 3, (5, 5) and (5, 11) have 2 each, and (8, 11) has one.
GRID_DIGESTS = {
    (8, 2, "json"): "ac49654b86e344b7245e2a21118400e1501dedfc26c5e36052c62344d8073ebb",
    (8, 2, "csv"): "9efd4b28b66a05f2b3baf14aaa35c81034e30a7e47810e5343f45d4a0de1ba04",
    (8, 2, "markdown"): "2c2ee1d9703d41f844d7b1b7397c827c5d00071d1f4e8dcd21fc7807afffd1e4",
    (8, 11, "json"): "cf2c947194135bfd90a855883f19f24513d2a7486bdd7dcc1be4620e9df8a6e7",
    (8, 11, "csv"): "f747f6c936adab24f6845c5ad2a88bd02d1b828490a61a819ee269a9fd0cc806",
    (8, 11, "markdown"): "42f2fdc7d05908b2a617fa73bbc8237294396f710224e3a4e53ff171e856150f",
    (5, 5, "json"): "c44afe2faefc2cac798e7dc4fb580bed921c4ee1cbf05a725025132d52f91660",
    (5, 5, "csv"): "2e6c06bb1ec28e0b0d1f51bfc1632269912689d63db84bb7b09f1e8ffdcd3e68",
    (5, 5, "markdown"): "f59cb79ea8432ad6ee9d0bd411ce89bd9e7e83be0f6e7b49819f13bd4a8b8d9e",
    (5, 11, "json"): "7c3a64c401853381bf35c9b9b936acd082dbbe5128ef212b5125d225b7ecf0f8",
    (5, 11, "csv"): "0cb25c5772cdaa45d89e1796f9ae7b302c206e9c73e5b8c59bdb798895ed2326",
    (5, 11, "markdown"): "7d346a263388cf50417a29ce18e1cc1fbe25f6e1693b9e4ed5d0b63babbb1d67",
    (3, 2, "json"): "b3dee476479a82c975459bff4f090d952ead019c9b22f3d53b1f4137227b6828",
    (3, 2, "csv"): "5cb9cc6a206d3e82ff012e7bf6816edfa62dc401c58c3ee4329ff575d9e99e7a",
    (3, 2, "markdown"): "8d6aae678c6838e43458f3898d4d00207064b75f529cb7b3613c48a41f7dac71",
}


class _HashSink(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of the UTF-8 it is sent."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


@pytest.mark.parametrize("n,p,fmt", sorted(GRID_DIGESTS))
def test_grid_digest(n, p, fmt):
    sink = _HashSink()
    with redirect_stdout(sink):
        code = main(["classify", "sp", "--n", str(n), "--p", str(p), "--grid",
                     "--format", fmt])
    assert code == 0
    assert sink.sha.hexdigest() == GRID_DIGESTS[n, p, fmt]
