"""Self-verification sweep.

Each check here reruns one acceptance property at a requested scale and
compares the pipelines against independent oracles: closed forms, exhaustive
map enumeration, and brute-force coset enumeration built on an integer
row-echelon reduction that shares no code with the Smith-form engine it
checks.  Scales cap at each property's stated bound so a large max_n stays
within the documented runtime budgets.  The sweep walks the image stream
phi_images once, feeding both the orders check and the divisibility check,
in one forked child process while the sweep's own process runs the other
checks (POSIX only).
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import signal
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb, factorial, gcd

from .arith import surjection_counts, surjection_counts_by_rank
from .errors import GuardFailed, OracleMismatch, OutOfRange
from .gauge import (
    LieFamily,
    Outcome,
    decide_local,
    mapping_group_order,
    q2_mapping_invariant,
    retractible,
)
from .lattice import IntMatrix, cokernel, element_order_in_coker, smith_normal_form
from .phi import (
    PhiResult,
    checked_order,
    closed_form_order,
    identity_samelson_p_part,
    phi_image,
    phi_images,
)
from .report import Report, fmt_bool, fmt_int
from .series import exp_minus_one_powers

_SEED = 20260819
_GUARD_PRIMES = (2, 3, 5, 7, 11, 13)
_SMITH_INSTANCES = 1000
_COSET_INSTANCES = 250
_COSET_CAP = 10_000  # the largest quotient the coset oracle enumerates


@dataclass
class CheckResult:
    name: str
    rows: list[dict[str, str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @contextmanager
    def recording(self):
        """Record an OracleMismatch that the engine raises inside the block
        as a failure of this check, so that the sweep still reports."""
        try:
            yield
        except OracleMismatch as exc:
            self.failures.append(str(exc))

    def add(self, **cells: str) -> None:
        """Append a row of this check: its name, then cells."""
        self.rows.append({"check": self.name, **cells})

    def summarize(self, **cells: str) -> None:
        """Close the check with one row: its name, cells and verdict."""
        self.add(**cells, ok=fmt_bool(self.ok))


def _p_part(a: int, p: int) -> int:
    """The p-part of a > 0, as gcd(a, p^e) with p^e > a; it shares no code
    with the valuation loop of the engine."""
    return gcd(a, p ** a.bit_length())


# ---------------------------------------------------------------------------
# brute-force coset enumeration oracle
#
# An integer row-echelon basis maintained by gcd insertion.  reduce() maps a
# vector to the canonical representative of its coset (every pivot coordinate
# lands in [0, pivot)), so cosets can be enumerated and compared without any
# Smith-form machinery.


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class EchelonLattice:
    """Sublattice of Z^dim in integer row-echelon form (pivot columns strictly
    increasing), built by gcd insertion."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []

    @staticmethod
    def _leading(vec) -> int | None:
        for idx, x in enumerate(vec):
            if x:
                return idx
        return None

    def insert(self, vec) -> None:
        vec = [int(x) for x in vec]
        while True:
            lead = self._leading(vec)
            if lead is None:
                return
            match = None
            for idx, row in enumerate(self.rows):
                if self._leading(row) == lead:
                    match = idx
                    break
            if match is None:
                if vec[lead] < 0:
                    vec = [-x for x in vec]
                self.rows.append(vec)
                self.rows.sort(key=self._leading)
                return
            row = self.rows[match]
            a, b = row[lead], vec[lead]
            g, x, y = _egcd(a, b)
            combo = [x * r + y * v for r, v in zip(row, vec)]
            if combo[lead] < 0:
                # _egcd may hand back a negative gcd; reduce() needs positive
                # pivots for the canonical box [0, pivot)
                combo = [-c for c in combo]
            residual = [(a // g) * v - (b // g) * r for r, v in zip(row, vec)]
            self.rows[match] = combo
            vec = residual

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative: pivot coordinates in [0, pivot)."""
        v = [int(x) for x in vec]
        for row in self.rows:
            j = self._leading(row)
            q = v[j] // row[j]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    def pivots(self) -> dict[int, int]:
        return {self._leading(row): abs(row[self._leading(row)]) for row in self.rows}


def _echelon_from_columns(mat: IntMatrix) -> EchelonLattice:
    lat = EchelonLattice(mat.rows)
    for j in range(mat.cols):
        lat.insert([mat.get(i, j) for i in range(mat.rows)])
    return lat


def enumerate_cosets(lat: EchelonLattice, cap: int) -> list[tuple[int, ...]] | None:
    """All canonical coset representatives, or None when the quotient is
    infinite or larger than cap."""
    piv = lat.pivots()
    if len(piv) < lat.dim:
        return None
    size = 1
    for a in piv.values():
        size *= a
        if size > cap:
            return None
    ranges = [range(piv[j]) for j in range(lat.dim)]
    return [tuple(v) for v in itertools.product(*ranges)]


def order_by_addition(lat: EchelonLattice, vec, cap: int) -> int:
    """Order of a coset by repeated addition and reduction."""
    start = lat.reduce(vec)
    if not any(start):
        return 1
    acc = start
    order = 1
    while any(acc):
        acc = lat.reduce([a + b for a, b in zip(acc, start)])
        order += 1
        if order > cap:
            raise AssertionError("order exceeded the enumeration cap")
    return order


def _divisors(x: int) -> list[int]:
    out = []
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            if d != x // d:
                out.append(x // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# per-rank oracle over the image stream


def _divisibility_row(res: PhiResult, counts: list[int]) -> list[str]:
    """Each generator of the rank-n image against the inclusion-exclusion
    oracle 2n(2n+1) * surj(2n-1, k), once per k, plus divisibility by the
    anchor and parity of the count.  counts is the rank's oracle row
    surj(2n-1, 0..n), from surjection_counts or surjection_counts_by_rank,
    which difference a table of powers and so share nothing with the
    Stirling recurrence behind the image."""
    bad = []
    n = res.n
    modulus = res.lower_gen
    scale = 2 * n * (2 * n + 1)
    for k in range(2, n + 1):
        gen = res.upper_gens[k - 1]
        count = counts[k]
        if gen != scale * count:
            bad.append(f"n={n} k={k}: generator {gen} differs from the "
                       f"surjection oracle {scale * count}")
        if gen % modulus != 0:
            bad.append(f"n={n} k={k}: generator {gen} not divisible by {modulus}")
        if count % 2 != 0:
            bad.append(f"n={n} k={k}: surjection count is odd")
    return bad


# ---------------------------------------------------------------------------
# the checks


def check_image_stream(max_n: int) -> tuple[CheckResult, CheckResult]:
    """The orders and divisibility checks, fed by one walk of phi_images.

    Orders: checked_order reads every order 4n(2n+1), n = 1..max_n, both as
    a gcd and as an element order in a Smith-form cokernel and raises
    OracleMismatch on any disagreement, which fails the check at that rank
    and leaves out its row; a pass has the two routes agreeing throughout.

    Divisibility, at every rank: scaled top coefficients equal 2n(2n+1)
    times the inclusion-exclusion surjection count, are divisible by
    4n(2n+1), and the count is even, for 2 <= k <= n <= max_n.  The counts
    come from surjection_counts_by_rank, one oracle row per rank, walked
    beside the image stream."""
    orders = CheckResult("samelson-orders")
    divisibility = CheckResult("scaled-coefficient-divisibility")
    pairs = 0
    for image, counts in zip(phi_images(max_n),
                             surjection_counts_by_rank(max_n)):
        with orders.recording():
            orders.add(n=fmt_int(image.n),
                       samelson_order=fmt_int(checked_order(image)))
        divisibility.failures.extend(_divisibility_row(image, counts))
        pairs += image.n - 1
    divisibility.add(pairs=fmt_int(pairs),
                     all_divisible=fmt_bool(divisibility.ok))
    return orders, divisibility


def check_printed_discrepancy() -> CheckResult:
    """The composition-sum backend fails divisibility at (n,k) = (3,2) and
    leaves the rank-3 image unpinned; the series backend pins it at 84."""
    res = CheckResult("printed-backend-discrepancy")
    printed = phi_image(3, "printed")
    series = phi_image(3)
    scaled = printed.upper_gens[1]
    modulus = printed.lower_gen
    res.add(n="3", k="2", scaled_coeff=fmt_int(scaled), modulus=fmt_int(modulus),
            divisible=fmt_bool(scaled % modulus == 0),
            printed_pinned=fmt_bool(printed.pinned_order is not None),
            series_order=fmt_int(series.pinned_order or 0))
    if scaled != 150 or modulus != 84 or scaled % modulus == 0:
        res.failures.append(
            f"expected scaled 150 vs modulus 84 without divisibility, "
            f"got {scaled} vs {modulus}"
        )
    if printed.pinned_order is not None:
        res.failures.append("printed backend unexpectedly pinned the rank-3 image")
    if series.pinned_order != 84:
        res.failures.append(f"series backend pinned {series.pinned_order}, not 84")
    return res


def check_mapping_group(max_n: int) -> CheckResult:
    """Rank-2 mapping group order equals (2n+1)!/3 for even n (anchor 40 at
    n = 2); the pipeline itself cross-checks the rho-table route against the
    closed form and raises OracleMismatch, recorded here, when they differ."""
    res = CheckResult("mapping-group-order")
    with res.recording():
        for n in range(2, min(max_n, 40) + 1, 2):
            res.add(n=fmt_int(n), order=fmt_int(mapping_group_order(n)))
    if max_n >= 2 and res.rows and res.rows[0]["order"] != "40":
        res.failures.append("anchor n=2 should give 40")
    return res


def check_separation(max_n: int) -> CheckResult:
    """The quotient invariant separates bundles exactly as gcd(k, 4n(2n+1))
    does: over k, l in [0, B] the two values determine each other."""
    res = CheckResult("quotient-invariant-separation")
    with res.recording():
        for n in range(2, min(max_n, 12) + 1, 2):
            b = closed_form_order(n)
            gcds = [gcd(k, b) for k in range(b + 1)]
            q2s = [q2_mapping_invariant(n, k) for k in range(b + 1)]
            by_gcd: dict[int, set[int]] = {}
            by_q2: dict[int, set[int]] = {}
            for g, q in zip(gcds, q2s):
                by_gcd.setdefault(g, set()).add(q)
                by_q2.setdefault(q, set()).add(g)
            if any(len(v) != 1 for v in by_gcd.values()):
                res.failures.append(f"n={n}: equal gcds with different invariants")
            if any(len(v) != 1 for v in by_q2.values()):
                res.failures.append(f"n={n}: equal invariants with different gcds")
            res.add(n=fmt_int(n), modulus=fmt_int(b), classes=fmt_int(len(by_gcd)))
    return res


def check_rank2_constants() -> CheckResult:
    """At n = 2 the quotient invariant is literally gcd(k, 40), and the
    5-local decider partitions k in [0, 40] by the 5-part (1 or 5)."""
    res = CheckResult("rank2-constants")
    with res.recording():
        for k in range(81):
            if q2_mapping_invariant(2, k) != gcd(k, 40):
                res.failures.append(f"k={k}: invariant differs from gcd(k, 40)")
    parts = {k: _p_part(gcd(k, 40), 5) for k in range(41)}
    if set(parts.values()) != {1, 5}:
        res.failures.append(f"5-parts over [0,40] were {sorted(set(parts.values()))}")
    for k in range(41):
        for l in range(41):
            verdict = decide_local(2, k, l, 5)
            expected = (
                Outcome.EQUIVALENT if parts[k] == parts[l] else Outcome.DISTINCT
            )
            if verdict.outcome is not expected:
                res.failures.append(f"k={k} l={l}: verdict {verdict.outcome.value}")
    res.summarize(range="0..80", partition_classes=fmt_int(len(set(parts.values()))))
    return res


def _random_matrix(rng: random.Random, max_dim: int, lo: int, hi: int) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def check_smith_random() -> CheckResult:
    """Random Smith forms: U A V = D exactly, both transforms unimodular,
    diagonal nonnegative and a divisibility chain."""
    res = CheckResult("smith-normal-form-random")
    rng = random.Random(_SEED)
    for idx in range(_SMITH_INSTANCES):
        a = _random_matrix(rng, 6, -20, 20)
        snf = smith_normal_form(a)
        if snf.u.mul(a).mul(snf.v).entries != snf.d.entries:
            res.failures.append(f"instance {idx}: U A V != D")
            continue
        if abs(snf.u.det()) != 1 or abs(snf.v.det()) != 1:
            res.failures.append(f"instance {idx}: transform not unimodular")
        diag = snf.d.diagonal()
        if any(x < 0 for x in diag):
            res.failures.append(f"instance {idx}: negative diagonal")
        for prev, nxt in zip(diag, diag[1:]):
            if prev == 0 and nxt != 0:
                res.failures.append(f"instance {idx}: zero before nonzero")
            elif prev != 0 and nxt % prev != 0:
                res.failures.append(f"instance {idx}: chain broken at {prev},{nxt}")
        off = [
            snf.d.get(i, j)
            for i in range(snf.d.rows)
            for j in range(snf.d.cols)
            if i != j and snf.d.get(i, j) != 0
        ]
        if off:
            res.failures.append(f"instance {idx}: D not diagonal")
    res.summarize(instances=fmt_int(_SMITH_INSTANCES))
    return res


def check_coset_oracle() -> CheckResult:
    """Cokernel invariants and element orders against brute-force coset
    enumeration on small random matrices with quotient order <= _COSET_CAP."""
    res = CheckResult("coset-enumeration-oracle")
    rng = random.Random(_SEED + 1)
    finite = 0
    skipped = 0
    for idx in range(_COSET_INSTANCES):
        a = _random_matrix(rng, 3, -3, 3)
        lat = _echelon_from_columns(a)
        group = cokernel(a)
        if group.free_rank != a.rows - len(lat.pivots()):
            res.failures.append(f"instance {idx}: free rank mismatch")
            continue
        cosets = enumerate_cosets(lat, _COSET_CAP)
        if cosets is None:
            # infinite quotient, or finite but beyond the enumeration cap
            skipped += 1
            continue
        finite += 1
        order = group.order()
        if order != len(cosets):
            res.failures.append(
                f"instance {idx}: cokernel order {order} vs {len(cosets)} cosets"
            )
            continue
        factors = group.invariant_factors
        d_max = factors[-1] if factors else 1
        for d in _divisors(d_max):
            predicted = 1
            for f in factors:
                predicted *= gcd(f, d)
            killed = sum(
                1 for v in cosets if not any(lat.reduce([d * x for x in v]))
            )
            if killed != predicted:
                res.failures.append(
                    f"instance {idx}: {killed} elements killed by {d}, "
                    f"predicted {predicted}"
                )
        for _ in range(3):
            vec = [rng.randint(-4, 4) for _ in range(a.rows)]
            direct = element_order_in_coker(a, vec)
            enumerated = order_by_addition(lat, vec, _COSET_CAP + 1)
            if direct != enumerated:
                res.failures.append(
                    f"instance {idx}: element order {direct} vs {enumerated}"
                )
    res.summarize(instances=fmt_int(_COSET_INSTANCES), finite=fmt_int(finite),
                  skipped=fmt_int(skipped))
    return res


def _image_size_tally(m: int) -> Counter:
    """The m^m self-maps of range(m) counted by image size, by the product
    rule alone: a half-map on the first m // 2 points with image set a and
    one on the rest with image set b make one map with image a | b."""
    bits = [1 << x for x in range(m)]

    def by_image(points: int) -> Counter:
        # the sum of a half-map's distinct bits is its image set as a bitmask
        return Counter(map(sum, map(set, itertools.product(bits, repeat=points))))

    tally: Counter = Counter()
    right = by_image(m - m // 2).items()
    for a, count_a in by_image(m // 2).items():
        for b, count_b in right:
            tally[(a | b).bit_count()] += count_a * count_b
    return tally


def check_series_identity() -> CheckResult:
    """m! times the x^m coefficient of (e^x - 1)^k equals the surjection
    count for m <= 12, validated for m <= 7 against an exhaustive count of
    the m^m self-maps by image size, every map once, as a pair of half-maps
    tallied by image set."""
    res = CheckResult("series-surjection-identity")
    oracle = {m: surjection_counts(m, m) for m in range(1, 13)}
    for k, power in zip(range(1, 13), exp_minus_one_powers(12)):
        for m in range(k, 13):
            lhs = factorial(m) * power[m]
            if lhs != oracle[m][k]:
                res.failures.append(f"m={m} k={k}: {lhs} vs {oracle[m][k]}")
    for m in range(1, 8):
        # C(m, k) image sets of size k, each hit by surj(m, k) maps
        tally = _image_size_tally(m)
        for k in range(1, m + 1):
            if comb(m, k) * oracle[m][k] != tally[k]:
                res.failures.append(f"m={m} k={k}: enumeration disagrees")
    res.summarize(coefficient_range="m<=12", enumeration_range="m<=7")
    return res


def check_guards(max_n: int) -> CheckResult:
    """Guarded operations refuse exactly when (p-1)^2 + 1 < 2n, and the
    retractibility registry matches its defining thresholds row by row."""
    res = CheckResult("guard-behavior")
    top = min(max_n, 20)
    for n in range(1, top + 1):
        for p in _GUARD_PRIMES:
            should_fail = (p - 1) ** 2 + 1 < 2 * n
            try:
                value = identity_samelson_p_part(n, p)
                failed = False
            except GuardFailed:
                failed = True
                value = None
            if failed != should_fail:
                res.failures.append(f"n={n} p={p}: guard exception mismatch")
            b = closed_form_order(n)
            if not failed and value != _p_part(b, p):
                res.failures.append(f"n={n} p={p}: wrong p-part {value}")
            verdict = decide_local(n, 1, 2, p)
            if (verdict.outcome is Outcome.NOT_DETERMINED) != should_fail:
                res.failures.append(f"n={n} p={p}: verdict guard mismatch")
            if verdict.invariant_values != (1, _p_part(gcd(2, b), p)):
                res.failures.append(f"n={n} p={p}: verdict invariants "
                                    f"{verdict.invariant_values}")
    for p in _GUARD_PRIMES:
        bound = (p - 1) ** 2 + 1
        for rank in range(1, top + 1):
            expected = {
                LieFamily.SU: bound >= rank,
                LieFamily.SP: bound >= 2 * rank,
                LieFamily.SPIN_ODD: bound >= 2 * rank,
            }
            for family, want in expected.items():
                if retractible(family, rank, p) != want:
                    res.failures.append(
                        f"{family.value} rank={rank} p={p}: registry mismatch"
                    )
        for family, min_p in (
            (LieFamily.G2, 5), (LieFamily.F4, 5), (LieFamily.E6, 5),
            (LieFamily.E7, 7), (LieFamily.E8, 7),
        ):
            if retractible(family, None, p) != (p >= min_p):
                res.failures.append(f"{family.value} p={p}: registry mismatch")
    res.summarize(max_n=fmt_int(top), primes=",".join(str(p) for p in _GUARD_PRIMES))
    return res


def _walk_in_child(write_fd: int, max_n: int) -> None:
    """The forked child's whole life: walk the image stream, send down the
    pipe the fields of its two checks, or the exception the walk raised,
    pickled, and leave by os._exit, so it never returns into the caller's
    code nor flushes the caller's buffered output.  The checks' fields are
    strings in lists and dicts, which marshal carries without loading
    pickle into the sweep's process."""
    status = 1
    try:
        try:
            answer = ([(c.name, c.rows, c.failures)
                       for c in check_image_stream(max_n)], None)
        except Exception as exc:
            import pickle

            answer = (None, pickle.dumps(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(answer))
        status = 0
    finally:
        os._exit(status)


def verify_sweep(max_n: int) -> Report:
    """Run every acceptance property up to max_n and assemble a Report.

    Each property caps at its stated scale (orders and divisibility at
    max_n, mapping group at 40, separation at 12, guards at 20; fixed-size
    checks run whenever max_n admits them), so max_n = 200 reproduces the
    full acceptance suite.  The image stream is walked once, by
    check_image_stream, in one forked child while this process runs the
    other checks; the child sends its two checks down a pipe.  An
    exception the walk raised is raised here again, a child that answers
    nothing raises ChildProcessError, and if the checks here raise, the
    child is killed.  Either way the child is reaped before this returns.
    The rows come in the same order whichever process ran them.
    """
    if max_n < 2:
        raise OutOfRange("verify needs max_n >= 2")
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            pid = os.fork()
        except OSError:
            os.close(write_fd)
            raise
        if pid == 0:
            _walk_in_child(write_fd, max_n)
        os.close(write_fd)
        try:
            fixed = [check_printed_discrepancy()] if max_n >= 3 else []
            fixed.extend([
                check_mapping_group(max_n),
                check_separation(max_n),
                check_rank2_constants(),
            ])
            rest = [
                check_smith_random(),
                check_coset_oracle(),
                check_series_identity(),
                check_guards(max_n),
            ]
            answer = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if not answer:
        raise ChildProcessError(
            "the image-stream walk answered nothing and exited with status "
            f"{os.waitstatus_to_exitcode(status)}")
    fields, error = marshal.loads(answer)
    if error is not None:
        import pickle

        raise pickle.loads(error)
    orders, divisibility = (CheckResult(*f) for f in fields)
    # the orders pass compared the gcd and cokernel routes at every rank;
    # this row keeps its scale and repeats none of the orders failures
    two_path = CheckResult("two-path-order-agreement")
    two_path.add(max_n=fmt_int(min(max_n, 60)), ok=fmt_bool(orders.ok))
    rows: list[dict[str, str]] = []
    failures: list[str] = []
    for c in [orders, divisibility, *fixed, two_path, *rest]:
        rows.extend(c.rows)
        failures.extend(f"{c.name}: {msg}" for msg in c.failures)
    return Report(
        command="verify",
        parameters={"max_n": fmt_int(max_n)},
        rows=rows,
        failures=failures,
    )
