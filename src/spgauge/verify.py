"""Self-verification sweep.

Each check here reruns one acceptance property at a requested scale and
compares the engine's answers with the independent oracles in oracles
(closed forms, inclusion-exclusion counts, exhaustive map enumeration),
which share no code with the engine they check.  The engine does not
re-check its own answers: verify alone holds the Samelson order to the
closed form at every rank it walks, and the rank-2 mapping pipeline to its
closed forms at every even rank up to 200; the series identity holds two
oracles, the powers of e^x - 1 and inclusion-exclusion, against each
other.  Scales cap at each property's stated bound so a large max_n stays
within the documented runtime budgets.  The sweep refuses a bad max_n,
then forks one child process (POSIX only) to walk the image stream
phi_images once for the orders and divisibility checks while its own
process runs the others.  A check's rows hold its values as they are, ints
and bools among them, and the report writes them.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import sys
from dataclasses import dataclass, field
from math import comb, factorial, gcd

from .arith import require_factorial_rank
from .errors import OutOfRange
from .gauge import (
    LieFamily,
    Outcome,
    decide_local,
    im_partial_order,
    mapping_group_order,
    q2_mapping_invariant,
    retractible,
)
from .oracles import (
    divisors,
    exp_minus_one_powers,
    gcd_p_part,
    image_size_tally,
    rank2_factor,
    samelson_b,
    surjection_counts,
    surjection_counts_by_rank,
)
from .phi import PhiResult, phi_image, phi_images
from .report import Report

_SEED = 20260819
_GUARD_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class CheckResult:
    name: str
    rows: list[dict[str, object]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, **cells: object) -> None:
        """Append a row of this check: its name, then cells."""
        self.rows.append({"check": self.name, **cells})

    def summarize(self, **cells: object) -> None:
        """Close the check with one row: its name, cells and verdict."""
        self.add(**cells, ok=self.ok)


def _order_failure(res: PhiResult, order: int | None) -> str | None:
    """The first of two faults of the rank-n image's order, its
    pinned_order as read by the caller, or None: no pinned order, or a
    pinned order off the oracle's closed form B = 4n(2n+1)."""
    n = res.n
    if order is None:
        return f"series-backend image at n={n} failed to pin the order"
    if order != samelson_b(n):
        return (f"pipeline order {order} differs from closed form "
                f"{samelson_b(n)} at n={n}")
    return None


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

    Orders: every image's pinned order, n = 1..max_n, the gcd that order
    prints, is held to the closed form 4n(2n+1); a rank whose image pins
    no order or pins another fails the check and leaves out its row, so a
    pass has the two agreeing throughout.

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
        # each read of pinned_order takes a gcd over all n generators
        order = image.pinned_order
        failure = _order_failure(image, order)
        if failure is None:
            orders.add(n=image.n, samelson_order=order)
        else:
            orders.failures.append(failure)
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
    """Rank-2 mapping group order equals (2n+1)!/3, read as c(n)B, for even
    n <= 40 (anchor 40 at n = 2)."""
    res = CheckResult("mapping-group-order")
    for n in range(2, min(max_n, 40) + 1, 2):
        order = mapping_group_order(n)
        expected = rank2_factor(n) * samelson_b(n)
        if order != expected:
            res.failures.append(f"n={n}: mapping group order {order} differs "
                                f"from (2n+1)!/3 = {expected}")
        res.add(n=n, order=order)
    if max_n >= 2 and res.rows and res.rows[0]["order"] != 40:
        res.failures.append("anchor n=2 should give 40")
    return res


def check_separation(max_n: int) -> CheckResult:
    """The rank-2 pipeline is one identity: with c(n) = (2n-1)!/6 and
    B = 4n(2n+1), the mapping group order is c(n)B, the quotient invariant
    c(n)gcd(k, B) and the boundary image order B/gcd(k, B).  As c(n) > 0,
    the quotient invariant then separates bundles exactly as gcd(k, B)
    does.  Every k in [0, B] is checked at even n <= 12, each with a row of
    its class count, the number of divisors of B; k = 1 and one seeded k
    at even 14 <= n <= min(max_n, 200).  A rank fails at its first wrong
    k."""
    res = CheckResult("quotient-invariant-separation")
    rng = random.Random(_SEED + 2)
    for n in range(2, min(max_n, 200) + 1, 2):
        b = samelson_b(n)
        c = rank2_factor(n)
        if mapping_group_order(n) != c * b:
            res.failures.append(
                f"n={n}: mapping group order differs from c(n)B")
        ks = range(b + 1) if n <= 12 else (1, rng.randint(-10**9, 10**9))
        for k in ks:
            g = gcd(k, b)
            if q2_mapping_invariant(n, k) != c * g:
                res.failures.append(f"n={n} k={k}: quotient invariant "
                                    f"differs from c(n)gcd(k, B)")
                break
            if im_partial_order(n, k) != b // g:
                res.failures.append(f"n={n} k={k}: boundary image order "
                                    f"differs from B/gcd(k, B)")
                break
        if n <= 12:
            res.add(n=n, modulus=b, classes=len(divisors(b)))
    return res


def check_rank2_constants() -> CheckResult:
    """At n = 2 the quotient invariant is literally gcd(k, 40), and the
    5-local decider partitions k in [0, 40] by the 5-part (1 or 5)."""
    res = CheckResult("rank2-constants")
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
    """Verdicts read not-determined exactly when (p-1)^2 + 1 < 2n, and hold
    the p-parts of gcd(k, B) for (k, l) = (0, 1), whose first is the p-part
    of B, and (1, 2); the retractibility registry matches its defining
    thresholds row by row."""
    res = CheckResult("guard-behavior")
    top = min(max_n, 20)
    for n in range(1, top + 1):
        b = samelson_b(n)
        for p in _GUARD_PRIMES:
            should_fail = (p - 1) ** 2 + 1 < 2 * n
            for k, l in ((0, 1), (1, 2)):
                verdict = decide_local(n, k, l, p)
                if (verdict.outcome is Outcome.NOT_DETERMINED) != should_fail:
                    res.failures.append(f"n={n} p={p} k={k} l={l}: verdict "
                                        f"guard mismatch")
                expected = (gcd_p_part(gcd(k, b), p), gcd_p_part(gcd(l, b), p))
                if verdict.invariant_values != expected:
                    res.failures.append(
                        f"n={n} p={p} k={k} l={l}: verdict invariants "
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
    pipe the fields of its two checks, strings, ints and bools in lists and
    dicts that marshal carries, and leave by os._exit, so it never returns
    into the caller's code nor flushes the caller's buffered output.  As
    verify_sweep has refused a bad max_n, a walk that raises is a fault:
    the child prints the traceback to stderr and exits 1."""
    status = 1
    try:
        fields = [(c.name, c.rows, c.failures)
                  for c in check_image_stream(max_n)]
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(fields))
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def verify_sweep(max_n: int) -> Report:
    """Run every acceptance property up to max_n and assemble a Report.

    Each property caps at its stated scale (orders and divisibility at
    max_n, mapping group at 40, separation at 200, over every k up to 12,
    guards at 20; fixed-size checks run whenever max_n admits them), so
    max_n = 200 reproduces the full acceptance suite.  The image stream is
    walked once, by check_image_stream, in one forked child while this
    process runs the other checks; the child sends its two checks down a
    pipe.  A max_n below 2 or past the factorial's range raises OutOfRange
    before the fork; a child that exits with any status but 0, as one whose
    walk raised does, raises ChildProcessError, whatever it wrote first.
    If the checks here raise, the child is killed.
    Either way the child is reaped before this returns.
    The rows come in the same order whichever process ran them.
    """
    if type(max_n) is not int or max_n < 2:
        raise OutOfRange(f"verify needs an integer max_n >= 2, got {max_n!r}")
    require_factorial_rank(max_n)
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
    orders, divisibility = (CheckResult(*f) for f in marshal.loads(answer))
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
