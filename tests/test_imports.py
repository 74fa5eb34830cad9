"""The package resolves its names on first access, a command imports only
the modules it runs, and no module imports a sibling's private names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spgauge

# the modules a cold import of the command line must not load
_DEFERRED = ("spgauge.verify", "spgauge.lattice", "spgauge.series", "csv")


@pytest.mark.parametrize("argv, loaded", [
    ([], set()),
    (["classify", "sp", "--n", "2", "--k", "1", "--l", "2", "--p", "5"], set()),
    (["order", "--n", "3"], {"spgauge.lattice"}),
    (["verify", "--max-n", "6"],
     {"spgauge.verify", "spgauge.lattice", "spgauge.series"}),
])
def test_a_command_imports_only_the_modules_it_runs(argv, loaded):
    # a fresh process, so no other test has imported anything yet; the
    # deferred modules it holds go to stderr, the report to stdout
    code = ("import sys\n"
            "from spgauge.cli import main\n"
            "if sys.argv[1:]:\n"
            "    assert main(sys.argv[1:]) == 0\n"
            f"print(*sorted(set({_DEFERRED!r}) & set(sys.modules)), "
            "file=sys.stderr)\n")
    src = str(Path(spgauge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.split()) == loaded


def test_every_public_name_is_its_module_attribute():
    for name, module in spgauge._EXPORTS.items():
        mod = importlib.import_module(f"spgauge.{module}")
        assert getattr(spgauge, name) is getattr(mod, name), name
    assert set(spgauge._EXPORTS) | spgauge._MODULES <= set(dir(spgauge))
    from spgauge import IntMatrix, verify_sweep
    from spgauge.lattice import IntMatrix as lattice_matrix
    from spgauge.verify import verify_sweep as sweep

    assert (IntMatrix, verify_sweep) == (lattice_matrix, sweep)


def test_a_module_is_an_attribute_of_the_package():
    # the import system sets spgauge.lattice once the module is loaded;
    # the package's __getattr__ must give the same module before that
    assert spgauge.lattice is sys.modules["spgauge.lattice"]
    for module in spgauge._MODULES:
        assert spgauge.__getattr__(module) is sys.modules[f"spgauge.{module}"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        spgauge.nope


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(spgauge.__file__).resolve().parent
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
