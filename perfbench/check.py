"""The check pass: replay each operation once and check every output row.

Output goes to a CheckSink, which frames it into lines while holding only
a bounded buffer and a running CRC-32.  A streaming parser per format turns
lines into row dicts, and a checker per command compares each row with
oracle.py.  The grid checker keeps counters only, so checking a grid of any
size takes constant memory on the benchmark's side.  The CRC of the replay
must equal the CRC of the timed run, so the checked bytes are the timed
bytes.
"""

from __future__ import annotations

import json
from math import gcd

import oracle
import primes
from sink import CHUNK, HashSink

MAX_LINE = 1 << 20
MAX_ERRORS = 5


class CheckSink(HashSink):
    """Frames written text into lines for `on_line`, keeping at most one
    partial line (bounded by MAX_LINE) and one CHUNK slice at a time."""

    def __init__(self, on_line):
        super().__init__()
        self.on_line = on_line
        self.partial = ""
        self.peak_buffer = 0

    def write(self, text: str) -> int:
        for start in range(0, len(text), CHUNK):
            piece = text[start:start + CHUNK]
            super().write(piece)
            lines = (self.partial + piece).split("\n")
            self.partial = lines.pop()
            self.peak_buffer = max(self.peak_buffer, len(self.partial) + len(piece))
            if len(self.partial) > MAX_LINE:
                raise ValueError("output line longer than the check buffer")
            for line in lines:
                self.on_line(line)
        return len(text)

    def finish(self) -> None:
        if self.partial:
            self.on_line(self.partial)
            self.partial = ""


# ---------------------------------------------------------------------------
# streaming row parsers: lines in, row dicts out


class MarkdownRows:
    def __init__(self, on_row):
        self.on_row = on_row
        self.command = None
        self.parameters: dict[str, str] = {}
        self.status = None
        self.cols = None

    def line(self, line: str) -> None:
        if line.startswith("| ") and line.endswith(" |"):
            cells = line[2:-2].split(" | ")
            if self.cols is None:
                self.cols = cells
            elif cells != ["---"] * len(cells):  # skip the header rule
                self.on_row(dict(zip(self.cols, cells)))
        elif line.startswith("# "):
            self.command = line[2:]
        elif line.startswith("status: "):
            self.status = line[len("status: "):]
        elif line.startswith("- ") and self.cols is None and ": " in line:
            key, val = line[2:].split(": ", 1)
            self.parameters[key] = val


class CsvRows:
    def __init__(self, on_row):
        self.on_row = on_row
        self.command = None
        self.parameters = None
        self.status = None
        self.cols = None

    def line(self, line: str) -> None:
        if '"' in line:
            raise ValueError(f"unexpected quoted CSV field: {line[:80]}")
        cells = line.split(",")
        if self.cols is None:
            self.cols = cells
        else:
            self.on_row(dict(zip(self.cols, cells)))


class JsonRows:
    """Parses the indent-2 report layout one row object at a time; the
    rest of the document is parsed once, with the rows cut out."""

    def __init__(self, on_row):
        self.on_row = on_row
        self.outer: list[str] = []
        self.row: list[str] | None = None
        self.in_rows = False
        self.command = self.parameters = self.status = None

    def line(self, line: str) -> None:
        if self.row is not None:
            self.row.append(line)
            if line.strip() in ("}", "},"):
                self.on_row(json.loads("".join(self.row).rstrip(",")))
                self.row = None
        elif self.in_rows and line.strip() == "{":
            self.row = [line]
        else:
            if line.strip() in ('"rows": [', '"rows": [],'):
                self.in_rows = line.strip().endswith("[")
            elif self.in_rows and line.strip().startswith("]"):
                self.in_rows = False
            self.outer.append(line)
            if sum(map(len, self.outer)) > MAX_LINE:
                raise ValueError("JSON envelope larger than the check buffer")

    def close(self) -> None:
        doc = json.loads("\n".join(self.outer))
        self.command = doc["command"]
        self.parameters = doc["parameters"]
        self.status = doc["status"]


PARSERS = {"markdown": MarkdownRows, "csv": CsvRows, "json": JsonRows}


# ---------------------------------------------------------------------------
# checkers: one per command kind


class Checker:
    def __init__(self, op):
        self.op = op
        self.errors: list[str] = []
        self.nerrors = 0
        self.rows: list[dict] = []

    def fail(self, msg: str) -> None:
        self.nerrors += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(msg)

    def row(self, row: dict) -> None:
        self.rows.append(row)

    def expect_row(self, got: dict, want: dict, where: str) -> None:
        for key, val in want.items():
            if got.get(key) != val:
                self.fail(f"{where}: {key} = {got.get(key)!r}, expected {val!r}")

    def expect_count(self, count: int) -> None:
        if len(self.rows) != count:
            self.fail(f"{len(self.rows)} rows, expected {count}")

    def finish(self, parser) -> None:
        raise NotImplementedError


class OrderChecker(Checker):
    def finish(self, parser):
        p = self.op.params
        ranks = range(1, p["max_n"] + 1) if "max_n" in p else [p["n"]]
        self.expect_count(len(ranks))
        for n, row in zip(ranks, self.rows):
            self.expect_row(row, {"n": str(n), "samelson_order": str(oracle.order(n))},
                            f"n={n}")


class PhiGensChecker(Checker):
    def finish(self, parser):
        n, backend = self.op.params["n"], self.op.params["backend"]
        want = oracle.phi_gens(n, backend)
        gens = [gen for _, _, gen in want]
        g = 0
        for x in gens:
            g = gcd(g, x)
        pinned = str(g) if g == gens[0] else "unpinned"
        self.expect_count(len(want))
        for (name, top, gen), row in zip(want, self.rows):
            self.expect_row(row, {
                "n": str(n), "generator": name, "top_coeff": str(top),
                "image_gen": str(gen), "lower_gen": str(oracle.order(n)),
                "pinned_order": pinned,
            }, f"n={n} {name}")


class ClassifyChecker(Checker):
    def finish(self, parser):
        p = self.op.params
        if self.op.kind == "classify-sp":
            want = oracle.classify_sp(p["n"], p["k"], p["l"], p["p"])
            echo = {"n": p["n"], "k": p["k"], "l": p["l"], "p": p["p"]}
        else:
            want = oracle.classify_spin(p["n"], p["k"], p["l"], p["p"])
            echo = {"m": 2 * p["n"] + p["epsilon"], "n": p["n"],
                    "epsilon": p["epsilon"], "k": p["k"], "l": p["l"], "p": p["p"]}
        want.update({key: str(val) for key, val in echo.items()})
        self.expect_count(1)
        if self.rows:
            self.expect_row(self.rows[0], want, self.op.kind)


class InvariantChecker(Checker):
    def finish(self, parser):
        n, ks = self.op.params["n"], self.op.params["ks"]
        self.expect_count(len(ks))
        for k, row in zip(ks, self.rows):
            self.expect_row(row, oracle.invariant(n, k), f"n={n} k={k}")


class RetractibleChecker(Checker):
    def finish(self, parser):
        p = self.op.params
        want = {"family": p["family"], "p": str(p["p"]),
                "retractible": oracle.fmt_bool(oracle.retractible(p["family"], p["n"], p["p"]))}
        if p["n"] is not None:
            want["n"] = str(p["n"])
        self.expect_count(1)
        if self.rows:
            self.expect_row(self.rows[0], want, "retractible")


class GridChecker(Checker):
    """Checks rows as they stream past, in k-major order, keeping only
    counters and the per-k expected strings (O(B) memory)."""

    def __init__(self, op):
        super().__init__(op)
        n, p = op.params["n"], op.params["p"]
        self.b = oracle.order(n)
        self.guard = oracle.retract_guard(n, p)
        self.values = [str(oracle.local_value(n, k, p)) for k in range(self.b + 1)]
        self.count = 0

    def row(self, row: dict) -> None:
        k, l = divmod(self.count, self.b + 1)
        self.count += 1
        vk, vl = self.values[k], self.values[l]
        want = {
            "k": str(k), "l": str(l),
            "outcome": oracle.verdict((vk, vl), self.guard),
            "invariant_k": vk, "invariant_l": vl,
            "guards_passed": oracle.fmt_bool(self.guard),
        }
        if row != want:
            self.expect_row(row, want, f"row k={k} l={l}")
            if set(row) != set(want):
                self.fail(f"row k={k} l={l}: columns {sorted(row)}")

    def finish(self, parser):
        n, p = self.op.params["n"], self.op.params["p"]
        if self.count != (self.b + 1) ** 2:
            self.fail(f"{self.count} rows, expected {(self.b + 1) ** 2}")
        if parser.parameters is not None:
            want = {"n": str(n), "p": str(p), "grid": f"0..{self.b}"}
            if parser.parameters != want:
                self.fail(f"parameters {parser.parameters}, expected {want}")


CHECKERS = {
    "order": OrderChecker, "phi-gens": PhiGensChecker,
    "classify-sp": ClassifyChecker, "classify-spin": ClassifyChecker,
    "invariant": InvariantChecker, "retractible": RetractibleChecker,
    "grid": GridChecker,
}


def check_op(op, run) -> tuple[tuple[int, int], list[str]]:
    """Replay `op` through a CheckSink; `run(argv, sink)` returns the exit
    code.  Returns the replay's (crc, byte count) and the errors found."""
    checker = CHECKERS[op.kind](op)
    parser = PARSERS[op.params.get("format", "markdown")](checker.row)
    sink = CheckSink(parser.line)
    try:
        rc = run(op.argv, sink)
        sink.finish()
        if isinstance(parser, JsonRows):
            parser.close()
        if rc != op.expect_rc:
            checker.fail(f"replay exited {rc}")
        checker.finish(parser)
        if parser.status not in (None, "ok"):
            checker.fail(f"status {parser.status!r}")
        if parser.command is not None and parser.command != _command(op):
            checker.fail(f"command {parser.command!r}")
    except Exception as exc:  # a malformed output is a failed check
        checker.fail(f"{type(exc).__name__}: {exc}")
    errors = [f"{' '.join(op.argv)}: {e}" for e in checker.errors]
    if checker.nerrors > len(checker.errors):
        errors.append(f"{' '.join(op.argv)}: {checker.nerrors - len(errors)} more")
    return sink.digest(), errors


def _command(op) -> str:
    if op.argv[0] == "classify":
        return f"classify-{op.argv[1]}"
    return op.argv[0]


def check_verify(rc: int, tail: str) -> list[str]:
    """verify is not replayed (its rows are the program's own self-checks):
    its timed run must exit 0 and end with the line "status: ok"."""
    if rc != 0:
        return [f"verify exited {rc}"]
    if not tail.endswith("\nstatus: ok\n"):
        return [f"verify output ends {tail[-40:]!r}, not 'status: ok'"]
    return []


def certify_primes(values) -> list[str]:
    """Certify each prime with the benchmark's Miller-Rabin and, when sympy
    is installed, with sympy.isprime as well."""
    try:
        from sympy import isprime
    except ImportError:
        isprime = None
    errors = []
    for p in sorted(set(values)):
        if not primes.is_prime(p):
            errors.append(f"p = {p} is not prime (Miller-Rabin)")
        elif isprime is not None and not isprime(p):
            errors.append(f"p = {p} is not prime (sympy)")
    return errors
