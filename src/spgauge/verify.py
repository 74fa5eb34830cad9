"""Self-verification sweep.

Each check here reruns one acceptance property at a requested scale and
compares the engine's answers with the independent oracles in oracles
(closed forms, exhaustive map enumeration, brute-force coset enumeration,
row-list matrix arithmetic), which share no code with the engine they
check; the series identity holds two oracles, the powers of e^x - 1 and
inclusion-exclusion, against each other.  Scales cap at each property's
stated bound so a large max_n stays within the documented runtime
budgets.  The sweep walks the image stream phi_images once, feeding both
the orders check and the divisibility check, in one forked child process
while the sweep's own process runs the other checks (POSIX only).  A
check's rows hold its values as they are, ints and bools among them, and
the report writes them.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb, factorial, gcd, prod

from .errors import GuardFailed, OracleMismatch, OutOfRange
from .gauge import (
    LieFamily,
    Outcome,
    decide_local,
    identity_samelson_p_part,
    mapping_group_order,
    q2_mapping_invariant,
    retractible,
)
from .lattice import element_order_in_coker, smith_normal_form
from .oracles import (
    EchelonLattice,
    determinant,
    divisors,
    enumerate_cosets,
    exp_minus_one_powers,
    gcd_p_part,
    image_size_tally,
    matrix_product,
    order_by_addition,
    samelson_b,
    surjection_counts,
    surjection_counts_by_rank,
)
from .phi import PhiResult, checked_order, phi_image, phi_images
from .report import Report

_SEED = 20260819
_GUARD_PRIMES = (2, 3, 5, 7, 11, 13)
_SMITH_INSTANCES = 1000
_COSET_INSTANCES = 250
_COSET_CAP = 10_000  # the largest quotient the coset oracle enumerates


@dataclass
class CheckResult:
    name: str
    rows: list[dict[str, object]] = field(default_factory=list)
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

    def add(self, **cells: object) -> None:
        """Append a row of this check: its name, then cells."""
        self.rows.append({"check": self.name, **cells})

    def summarize(self, **cells: object) -> None:
        """Close the check with one row: its name, cells and verdict."""
        self.add(**cells, ok=self.ok)


def _divisibility_row(res: PhiResult, counts: list[int]) -> list[str]:
    """Each generator of the rank-n image against the inclusion-exclusion
    oracle 2n(2n+1) * surj(2n-1, k), once per k, plus divisibility by the
    anchor and parity of the count.  counts is the rank's oracle row
    surj(2n-1, 0..n) from surjection_counts_by_rank, which differences a
    table of powers and so shares nothing with the Stirling recurrence
    behind the image."""
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
            orders.add(n=image.n, samelson_order=checked_order(image))
        divisibility.failures.extend(_divisibility_row(image, counts))
        pairs += image.n - 1
    divisibility.add(pairs=pairs, all_divisible=divisibility.ok)
    return orders, divisibility


def check_printed_discrepancy() -> CheckResult:
    """The composition-sum backend fails divisibility at (n,k) = (3,2) and
    leaves the rank-3 image unpinned; the series backend pins it at 84."""
    res = CheckResult("printed-backend-discrepancy")
    printed = phi_image(3, "printed")
    series = phi_image(3)
    scaled = printed.upper_gens[1]
    modulus = printed.lower_gen
    res.add(n=3, k=2, scaled_coeff=scaled, modulus=modulus,
            divisible=scaled % modulus == 0,
            printed_pinned=printed.pinned_order is not None,
            series_order=series.pinned_order or 0)
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
            res.add(n=n, order=mapping_group_order(n))
    if max_n >= 2 and res.rows and res.rows[0]["order"] != 40:
        res.failures.append("anchor n=2 should give 40")
    return res


def check_separation(max_n: int) -> CheckResult:
    """The quotient invariant separates bundles exactly as gcd(k, 4n(2n+1))
    does: over k, l in [0, B] the two values determine each other."""
    res = CheckResult("quotient-invariant-separation")
    with res.recording():
        for n in range(2, min(max_n, 12) + 1, 2):
            b = samelson_b(n)
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
            res.add(n=n, modulus=b, classes=len(by_gcd))
    return res


def check_rank2_constants() -> CheckResult:
    """At n = 2 the quotient invariant is literally gcd(k, 40), and the
    5-local decider partitions k in [0, 40] by the 5-part (1 or 5)."""
    res = CheckResult("rank2-constants")
    with res.recording():
        for k in range(81):
            if q2_mapping_invariant(2, k) != gcd(k, 40):
                res.failures.append(f"k={k}: invariant differs from gcd(k, 40)")
    parts = {k: gcd_p_part(gcd(k, 40), 5) for k in range(41)}
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
    res.summarize(range="0..80", partition_classes=len(set(parts.values())))
    return res


def _random_matrix(
    rng: random.Random, max_dim: int, lo: int, hi: int
) -> list[list[int]]:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def check_smith_random() -> CheckResult:
    """Random Smith forms: U A V = D exactly, both transforms unimodular,
    diagonal nonnegative and a divisibility chain."""
    res = CheckResult("smith-normal-form-random")
    rng = random.Random(_SEED)
    for idx in range(_SMITH_INSTANCES):
        a = _random_matrix(rng, 6, -20, 20)
        u, d, v = smith_normal_form(a)
        if matrix_product(matrix_product(u, a), v) != d:
            res.failures.append(f"instance {idx}: U A V != D")
            continue
        if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
            res.failures.append(f"instance {idx}: transform not unimodular")
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        if any(x < 0 for x in diag):
            res.failures.append(f"instance {idx}: negative diagonal")
        for prev, nxt in zip(diag, diag[1:]):
            if prev == 0 and nxt != 0:
                res.failures.append(f"instance {idx}: zero before nonzero")
            elif prev != 0 and nxt % prev != 0:
                res.failures.append(f"instance {idx}: chain broken at {prev},{nxt}")
        if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
            res.failures.append(f"instance {idx}: D not diagonal")
    res.summarize(instances=_SMITH_INSTANCES)
    return res


def check_coset_oracle() -> CheckResult:
    """Cokernel invariants and element orders against brute-force coset
    enumeration on small random matrices with quotient order <= _COSET_CAP.

    The invariants are read off the Smith form's diagonal: its nonzero
    entries are the cyclic orders, so the rows less their count are the
    free rank, their product is the order, and the elements killed by m
    number the product of their gcds with m."""
    res = CheckResult("coset-enumeration-oracle")
    rng = random.Random(_SEED + 1)
    finite = 0
    skipped = 0
    for idx in range(_COSET_INSTANCES):
        a = _random_matrix(rng, 3, -3, 3)
        lat = EchelonLattice(len(a))
        for column in zip(*a):
            lat.insert(column)
        d = smith_normal_form(a)[1]
        cyclic = [d[i][i] for i in range(min(len(a), len(a[0]))) if d[i][i]]
        # equal counts are equal free ranks, the rows less the count
        if len(cyclic) != len(lat.pivots()):
            res.failures.append(f"instance {idx}: free rank mismatch")
            continue
        cosets = enumerate_cosets(lat, _COSET_CAP)
        if cosets is None:
            # infinite quotient, or finite but beyond the enumeration cap
            skipped += 1
            continue
        finite += 1
        order = prod(cyclic)
        if order != len(cosets):
            res.failures.append(
                f"instance {idx}: cokernel order {order} vs {len(cosets)} cosets"
            )
            continue
        # a finite quotient has a cyclic order per row, the last the largest
        for m in divisors(cyclic[-1]):
            predicted = prod(gcd(f, m) for f in cyclic)
            killed = sum(
                1 for v in cosets if not any(lat.reduce([m * x for x in v]))
            )
            if killed != predicted:
                res.failures.append(
                    f"instance {idx}: {killed} elements killed by {m}, "
                    f"predicted {predicted}"
                )
        for _ in range(3):
            vec = [rng.randint(-4, 4) for _ in range(len(a))]
            direct = element_order_in_coker(a, vec)
            enumerated = order_by_addition(lat, vec, _COSET_CAP + 1)
            if direct != enumerated:
                res.failures.append(
                    f"instance {idx}: element order {direct} vs {enumerated}"
                )
    res.summarize(instances=_COSET_INSTANCES, finite=finite, skipped=skipped)
    return res


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
        tally = image_size_tally(m)
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
            b = samelson_b(n)
            if not failed and value != gcd_p_part(b, p):
                res.failures.append(f"n={n} p={p}: wrong p-part {value}")
            verdict = decide_local(n, 1, 2, p)
            if (verdict.outcome is Outcome.NOT_DETERMINED) != should_fail:
                res.failures.append(f"n={n} p={p}: verdict guard mismatch")
            if verdict.invariant_values != (1, gcd_p_part(gcd(2, b), p)):
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
    res.summarize(max_n=top, primes=",".join(map(str, _GUARD_PRIMES)))
    return res


def _walk_in_child(write_fd: int, max_n: int) -> None:
    """The forked child's whole life: walk the image stream, send down the
    pipe the fields of its two checks, or the exception the walk raised,
    pickled, and leave by os._exit, so it never returns into the caller's
    code nor flushes the caller's buffered output.  The checks' fields are
    strings, ints and bools in lists and dicts, which marshal carries
    without loading pickle into the sweep's process."""
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
    exception the walk raised is raised here again, a child that exits
    with any status but 0 raises ChildProcessError, whatever it wrote
    first, and if the checks here raise, the child is killed.
    Either way the child is reaped before this returns.
    The rows come in the same order whichever process ran them.
    """
    if not isinstance(max_n, int) or max_n < 2:
        raise OutOfRange(f"verify needs an integer max_n >= 2, got {max_n!r}")
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
            checks = [check_printed_discrepancy()] if max_n >= 3 else []
            checks.extend([
                check_mapping_group(max_n),
                check_separation(max_n),
                check_rank2_constants(),
                check_smith_random(),
                check_coset_oracle(),
                check_series_identity(),
                check_guards(max_n),
            ])
            answer = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status:
        raise ChildProcessError(
            f"the image-stream walk sent {len(answer)} bytes and exited "
            f"with status {os.waitstatus_to_exitcode(status)}")
    fields, error = marshal.loads(answer)
    if error is not None:
        import pickle

        raise pickle.loads(error)
    orders, divisibility = (CheckResult(*f) for f in fields)
    rows: list[dict[str, object]] = []
    failures: list[str] = []
    for c in [orders, divisibility, *checks]:
        rows.extend(c.rows)
        failures.extend(f"{c.name}: {msg}" for msg in c.failures)
    return Report(
        command="verify",
        parameters={"max_n": max_n},
        rows=rows,
        failures=failures,
    )
