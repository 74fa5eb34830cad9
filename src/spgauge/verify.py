"""Self-verification sweep.

Each check here reruns one acceptance property at a requested scale and
compares the pipelines against independent oracles: closed forms, exhaustive
map enumeration, and brute-force coset enumeration built on an integer
row-echelon reduction that shares no code with the Smith-form engine it
checks.  Scales cap at each property's stated bound so a large max_n stays
within the documented runtime budgets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import factorial, gcd

from .arith import p_part, surjections
from .errors import GuardFailed
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
from .series import exp_minus_one_pow

_SEED = 20260819
_GUARD_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class CheckResult:
    name: str
    rows: list[dict[str, str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


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

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


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
# per-rank workers over the image stream (top level so process pools can
# pickle them)


def _divisibility_row(res: PhiResult) -> list[str]:
    """Each generator of the rank-n image against the inclusion-exclusion
    oracle 2n(2n+1) * surjections(2n-1, k), once per k, plus divisibility by
    the anchor and parity of the count."""
    bad = []
    n = res.n
    modulus = res.lower_gen
    scale = 2 * n * (2 * n + 1)
    for k in range(2, n + 1):
        gen = res.upper_gens[k - 1]
        count = surjections(2 * n - 1, k)
        if gen != scale * count:
            bad.append(f"n={n} k={k}: generator {gen} differs from the "
                       f"surjection oracle {scale * count}")
        if gen % modulus != 0:
            bad.append(f"n={n} k={k}: generator {gen} not divisible by {modulus}")
        if count % 2 != 0:
            bad.append(f"n={n} k={k}: surjection count is odd")
    return bad


def _map_ordered(fn, args, jobs: int):
    if jobs > 1:
        # imported here: the pool costs a third of the CLI's start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, args, chunksize=8)
    else:
        yield from map(fn, args)


# ---------------------------------------------------------------------------
# the checks


def check_samelson_orders(max_n: int, jobs: int = 1) -> CheckResult:
    """Orders 4n(2n+1) out of the dual-route pipeline for n = 1..max_n."""
    res = CheckResult("samelson-orders")
    orders = _map_ordered(checked_order, phi_images(max_n), jobs)
    for n, order in enumerate(orders, 1):
        res.rows.append({
            "check": res.name, "n": fmt_int(n), "samelson_order": fmt_int(order),
        })
        if order != closed_form_order(n):
            res.failures.append(f"n={n}: order {order}")
    return res


def check_divisibility(max_n: int, jobs: int = 1) -> CheckResult:
    """Scaled top coefficients equal 2n(2n+1) times the inclusion-exclusion
    surjection count, are divisible by 4n(2n+1), and the count is even, for
    2 <= k <= n <= max_n."""
    res = CheckResult("scaled-coefficient-divisibility")
    pairs = 0
    images = itertools.islice(phi_images(max_n), 1, None)
    for n, bad in enumerate(_map_ordered(_divisibility_row, images, jobs), 2):
        pairs += n - 1
        res.failures.extend(bad)
    res.rows.append({
        "check": res.name,
        "pairs": fmt_int(pairs),
        "all_divisible": fmt_bool(not res.failures),
    })
    return res


def check_printed_discrepancy() -> CheckResult:
    """The composition-sum backend fails divisibility at (n,k) = (3,2) and
    leaves the rank-3 image unpinned; the series backend pins it at 84."""
    res = CheckResult("printed-backend-discrepancy")
    printed = phi_image(3, "printed")
    *_, series = phi_images(3)
    scaled = printed.upper_gens[1]
    modulus = printed.lower_gen
    res.rows.append({
        "check": res.name,
        "n": "3", "k": "2",
        "scaled_coeff": fmt_int(scaled),
        "modulus": fmt_int(modulus),
        "divisible": fmt_bool(scaled % modulus == 0),
        "printed_pinned": fmt_bool(printed.pinned_order is not None),
        "series_order": fmt_int(series.pinned_order or 0),
    })
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
    closed form."""
    res = CheckResult("mapping-group-order")
    for n in range(2, min(max_n, 40) + 1, 2):
        order = mapping_group_order(n)
        res.rows.append({
            "check": res.name, "n": fmt_int(n), "order": fmt_int(order),
        })
        if order != factorial(2 * n + 1) // 3:
            res.failures.append(f"n={n}: order {order}")
    if max_n >= 2 and res.rows and res.rows[0]["order"] != "40":
        res.failures.append("anchor n=2 should give 40")
    return res


def check_separation(max_n: int) -> CheckResult:
    """The quotient invariant separates bundles exactly as gcd(k, 4n(2n+1))
    does: over k, l in [0, B] the two values determine each other."""
    res = CheckResult("quotient-invariant-separation")
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
        res.rows.append({
            "check": res.name,
            "n": fmt_int(n),
            "modulus": fmt_int(b),
            "classes": fmt_int(len(by_gcd)),
        })
    return res


def check_rank2_constants() -> CheckResult:
    """At n = 2 the quotient invariant is literally gcd(k, 40), and the
    5-local decider partitions k in [0, 40] by the 5-part (1 or 5)."""
    res = CheckResult("rank2-constants")
    for k in range(81):
        if q2_mapping_invariant(2, k) != gcd(k, 40):
            res.failures.append(f"k={k}: invariant differs from gcd(k, 40)")
    parts = {k: p_part(gcd(k, 40), 5) for k in range(41)}
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
    res.rows.append({
        "check": res.name,
        "range": "0..80",
        "partition_classes": fmt_int(len(set(parts.values()))),
        "ok": fmt_bool(not res.failures),
    })
    return res


def _random_matrix(rng: random.Random, max_dim: int, lo: int, hi: int) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def check_smith_random(count: int = 1000) -> CheckResult:
    """Random Smith forms: U A V = D exactly, both transforms unimodular,
    diagonal nonnegative and a divisibility chain."""
    res = CheckResult("smith-normal-form-random")
    rng = random.Random(_SEED)
    for idx in range(count):
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
    res.rows.append({
        "check": res.name,
        "instances": fmt_int(count),
        "ok": fmt_bool(not res.failures),
    })
    return res


def check_coset_oracle(count: int = 250, cap: int = 10_000) -> CheckResult:
    """Cokernel invariants and element orders against brute-force coset
    enumeration on small random matrices with quotient order <= cap."""
    res = CheckResult("coset-enumeration-oracle")
    rng = random.Random(_SEED + 1)
    finite = 0
    skipped = 0
    for idx in range(count):
        a = _random_matrix(rng, 3, -3, 3)
        lat = _echelon_from_columns(a)
        group = cokernel(a)
        if group.free_rank != a.rows - len(lat.pivots()):
            res.failures.append(f"instance {idx}: free rank mismatch")
            continue
        cosets = enumerate_cosets(lat, cap)
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
            enumerated = order_by_addition(lat, vec, cap + 1)
            if direct != enumerated:
                res.failures.append(
                    f"instance {idx}: element order {direct} vs {enumerated}"
                )
    res.rows.append({
        "check": res.name,
        "instances": fmt_int(count),
        "finite": fmt_int(finite),
        "skipped": fmt_int(skipped),
        "ok": fmt_bool(not res.failures),
    })
    return res


def check_two_path_orders(max_n: int) -> CheckResult:
    """The gcd route and the Smith-form cokernel route give the same Samelson
    order for every n up to min(max_n, 60)."""
    res = CheckResult("two-path-order-agreement")
    top = min(max_n, 60)
    for n, image in enumerate(phi_images(top), 1):
        gens = image.upper_gens
        direct = 0
        for g in gens:
            direct = gcd(direct, g)
        via = element_order_in_coker(IntMatrix.from_rows([list(gens)]), [1])
        if direct != via:
            res.failures.append(f"n={n}: gcd {direct} vs cokernel {via}")
    res.rows.append({
        "check": res.name,
        "max_n": fmt_int(top),
        "ok": fmt_bool(not res.failures),
    })
    return res


def _count_surjections_by_enumeration(m: int, k: int) -> int:
    count = 0
    for f in itertools.product(range(k), repeat=m):
        if len(set(f)) == k:
            count += 1
    return count


def check_series_identity() -> CheckResult:
    """m! times the x^m coefficient of (e^x - 1)^k equals the surjection
    count for m <= 12, validated against exhaustive map enumeration for
    m <= 7."""
    res = CheckResult("series-surjection-identity")
    for k in range(1, 13):
        series = exp_minus_one_pow(k, 12)
        for m in range(k, 13):
            lhs = factorial(m) * series.coeff(m)
            if lhs != surjections(m, k):
                res.failures.append(f"m={m} k={k}: {lhs} vs {surjections(m, k)}")
    for m in range(1, 8):
        for k in range(1, m + 1):
            if surjections(m, k) != _count_surjections_by_enumeration(m, k):
                res.failures.append(f"m={m} k={k}: enumeration disagrees")
    res.rows.append({
        "check": res.name,
        "coefficient_range": "m<=12",
        "enumeration_range": "m<=7",
        "ok": fmt_bool(not res.failures),
    })
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
            if not failed and value != p_part(closed_form_order(n), p):
                res.failures.append(f"n={n} p={p}: wrong p-part {value}")
            verdict = decide_local(n, 1, 2, p)
            if (verdict.outcome is Outcome.NOT_DETERMINED) != should_fail:
                res.failures.append(f"n={n} p={p}: verdict guard mismatch")
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
    res.rows.append({
        "check": res.name,
        "max_n": fmt_int(top),
        "primes": ",".join(str(p) for p in _GUARD_PRIMES),
        "ok": fmt_bool(not res.failures),
    })
    return res


def verify_sweep(max_n: int, jobs: int = 1) -> Report:
    """Run every acceptance property up to max_n and assemble a Report.

    Each property caps at its stated scale (orders and divisibility at
    max_n, mapping group at 40, separation at 12, two-path agreement at 60,
    guards at 20; fixed-size checks run whenever max_n admits them), so
    max_n = 200 reproduces the full acceptance suite.
    """
    if max_n < 2:
        raise ValueError("verify needs max_n >= 2")
    checks = [
        check_samelson_orders(max_n, jobs),
        check_divisibility(max_n, jobs),
    ]
    if max_n >= 3:
        checks.append(check_printed_discrepancy())
    checks.extend([
        check_mapping_group(max_n),
        check_separation(max_n),
        check_rank2_constants(),
        check_two_path_orders(max_n),
        check_smith_random(),
        check_coset_oracle(),
        check_series_identity(),
        check_guards(max_n),
    ])
    rows: list[dict[str, str]] = []
    failures: list[str] = []
    for c in checks:
        rows.extend(c.rows)
        failures.extend(f"{c.name}: {msg}" for msg in c.failures)
    return Report(
        command="verify",
        parameters={"max_n": fmt_int(max_n), "jobs": fmt_int(jobs)},
        rows=rows,
        failures=failures,
    )
