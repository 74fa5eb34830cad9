"""The package resolves its names on first access, a command imports only
the modules it runs, no module imports a sibling's private names, the
oracles stay apart from the engine they check, and every public name is
read by the package or listed with what it serves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spgauge

# the modules a cold import of the command line must not load
_DEFERRED = ("spgauge.verify", "spgauge.oracles", "spgauge.series", "csv",
             "pickle")


@pytest.mark.parametrize("argv, loaded", [
    ([], set()),
    (["classify", "sp", "--n", "2", "--k", "1", "--l", "2", "--p", "5"], set()),
    (["order", "--n", "3"], set()),
    (["verify", "--max-n", "6"],
     {"spgauge.verify", "spgauge.oracles", "spgauge.series"}),
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
    from spgauge import PhiResult, verify_sweep
    from spgauge.phi import PhiResult as phi_result
    from spgauge.verify import verify_sweep as sweep

    assert (PhiResult, verify_sweep) == (phi_result, sweep)


def test_a_module_is_an_attribute_of_the_package():
    # the import system sets spgauge.verify once the module is loaded;
    # the package's __getattr__ must give the same module before that
    assert spgauge.verify is sys.modules["spgauge.verify"]
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


# the engine: the modules verify checks, and the command line
_ENGINE = ("arith", "series", "phi", "gauge", "report", "cli")
# the engine names verify holds against the oracles (and writes its report
# with)
_VERIFY_ENGINE_IMPORTS = {
    ("arith", "require_factorial_rank"),
    ("gauge", "LieFamily"), ("gauge", "Outcome"), ("gauge", "decide_local"),
    ("gauge", "im_partial_order"), ("gauge", "mapping_group_order"),
    ("gauge", "q2_mapping_invariant"), ("gauge", "retractible"),
    ("phi", "PhiResult"), ("phi", "phi_image"), ("phi", "phi_images"),
    ("report", "Report"),
}


def _package_imports(module):
    """(enclosing function or None, sibling module, name) for every import
    of the package's own modules in spgauge/<module>.py."""
    path = Path(spgauge.__file__).resolve().parent / f"{module}.py"
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
            elif isinstance(child, ast.ImportFrom):
                source = child.module or ""
                if child.level == 0 and source.split(".")[0] != "spgauge":
                    continue
                source = source.removeprefix("spgauge").lstrip(".")
                for alias in child.names:
                    # `from . import x` imports the module x itself
                    found.add((func, source or alias.name, alias.name))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    parts = alias.name.split(".")
                    if parts[0] == "spgauge" and len(parts) > 1:
                        found.add((func, parts[1], None))
            else:
                visit(child, func)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_the_oracles_import_nothing_from_the_package_but_errors():
    sources = {source for _, source, _ in _package_imports("oracles")}
    assert sources == {"errors"}


def test_no_engine_module_imports_the_oracles_and_only_cli_runs_verify():
    imports = {(module, func, source) for module in _ENGINE
               for func, source, _ in _package_imports(module)}
    assert {i for i in imports if i[2] == "oracles"} == set()
    assert {(module, func) for module, func, source in imports
            if source == "verify"} == {("cli", "_cmd_verify")}


def test_verify_imports_exactly_the_engine_names_it_checks():
    assert {(source, name) for _, source, name in _package_imports("verify")
            if source not in ("errors", "oracles")} == _VERIFY_ENGINE_IMPORTS


def test_cli_and_verify_hand_the_report_their_values_as_they_are():
    # the report alone turns a value into text, so the front ends import
    # nothing from it that formats one
    assert {name for module in ("cli", "verify")
            for _, source, name in _package_imports(module)
            if source == "report"} <= {"FORMATS", "Product", "Report"}


def test_phi_keeps_only_the_image_and_gauge_every_p_local_answer():
    # the retractibility guard and the p-part of B are written once, in
    # gauge, which reads B from arith; phi imports nothing that takes a
    # prime
    assert "phi" not in {source for _, source, _ in _package_imports("gauge")}
    assert not {name for _, _, name in _package_imports("phi")} & {
        "require_prime", "is_prime", "valuation"}
    assert {module for module in _ENGINE
            for _, _, name in _package_imports(module)
            if name == "require_prime"} == {"gauge"}


# the public names no other package module imports, each with the command
# or paper claim it serves
_EXPORTS_READ_FROM_OUTSIDE = {
    "is_prime": "the bounded primality test behind every command's --p "
                "(require_prime calls it)",
    "GuardCheck": "the guards of a classify verdict, read by guards_passed",
    "Verdict": "the record classify sp and spin print, outcome and values",
    "im_delta_gen": "the connecting-map image |k|(2n-1)!/6 under "
                    "invariant's q2_order",
}


def test_every_public_name_is_read_by_the_package_or_listed():
    package = Path(spgauge.__file__).resolve().parent
    read = {(source, name) for path in package.glob("*.py")
            if path.stem != "__init__"
            for _, source, name in _package_imports(path.stem)
            if source != path.stem}
    unread = {name for name, module in spgauge._EXPORTS.items()
              if (module, name) not in read}
    assert unread == set(_EXPORTS_READ_FROM_OUTSIDE)


def test_every_package_error_raised_is_one_of_the_two_kinds():
    # errors promises that every error is OutOfRange or
    # NonIntegralGenerator, so no module raises the base class or another
    # name from errors
    package = Path(spgauge.__file__).resolve().parent
    kinds = {name for name, obj in vars(spgauge.errors).items()
             if isinstance(obj, type)
             and issubclass(obj, spgauge.errors.SpgaugeError)}
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name) and exc.id in kinds:
                    raised.add((path.stem, exc.id))
    assert raised and {name for _, name in raised} <= {
        "OutOfRange", "NonIntegralGenerator"}, raised
