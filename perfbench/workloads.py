"""Seeded inputs for the three workloads.

Each workload is a fixed list of operations; one operation is one CLI
command, given as its argv.  The same seed always gives the same list, and
every seed gives the same number of operations of each kind, so a run's
work does not drift with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from primes import next_prime

WORKLOADS = ("sweep", "grid", "queries")
FORMATS = ("markdown", "csv", "json")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# (rank, primes to draw from) per grid: below the retractibility guard at
# n = 3 (every verdict not-determined), above it at n = 5 and 8.  p = 2 is kept
# off the large grids, where its extra division steps would make the work
# seed-dependent.  The two rank-5 grids put six like-sized operations around
# the median, so op_p50_ms is not the time of a single command.
GRID = ((3, (2, 3)), (5, (5, 7)), (5, (11, 13)), (8, (5, 7, 11, 13)))
FAMILIES = ("SU", "Sp", "SpinOdd", "G2", "F4", "E6", "E7", "E8")
RANKED = ("SU", "Sp", "SpinOdd")

# Commands with bad input that the program accepts today.  Every one should
# exit 2 (usage error); until the faults are mended each counts as failed.
# They do not depend on the seed.
BAD_INPUT = (
    ("classify", "sp", "--n", "0", "--p", "5", "--k", "1", "--l", "2"),
    ("classify", "sp", "--n", "-3", "--p", "5", "--k", "1", "--l", "2"),
    ("retractible", "--family", "Sp", "--n", "3", "--p", "4"),
)


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    params: dict = field(default_factory=dict, compare=False)


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "markdown" else ("--format", fmt)


def sweep(seed: int) -> list[Op]:
    """The acceptance sweep at the repository's acceptance scale.  It has no
    random inputs; the seed is accepted and ignored."""
    del seed
    return [
        Op("verify", ("verify", "--max-n", "200", "--jobs", "1"),
           params={"max_n": 200}),
        Op("order", ("order", "--max-n", "200"), params={"max_n": 200}),
    ]


def grid(seed: int) -> list[Op]:
    """Full verdict grids at ranks 3, 5, 5 and 8, a seeded small prime for
    each, every grid in all three formats.  Formats form the outer loop, so
    the like-sized commands are spread over the round rather than run back to
    back in one phase of the host's speed."""
    rng = random.Random(f"grid:{seed}")
    grids = [(n, rng.choice(choices)) for n, choices in GRID]
    ops = []
    for fmt in FORMATS:
        for n, p in grids:
            argv = ("classify", "sp", "--n", str(n), "--p", str(p), "--grid")
            ops.append(Op("grid", argv + _fmt_args(fmt),
                          params={"n": n, "p": p, "format": fmt}))
    return ops


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of [lo, hi], so
    the total cost of the draws barely moves with the seed."""
    width = (hi - lo + 1) / count
    return [lo + int(i * width) + rng.randrange(max(1, int(width)))
            for i in range(count)]


def large_primes(rng: random.Random, count: int) -> list[int]:
    """Primes of 10 to 13 digits: one near each of `count` log-spaced anchors
    in [1e9, 1e13], jittered by up to 2 %.  Trial division costs sqrt(p),
    so fixed anchors keep the work of a run the same from seed to seed."""
    out = []
    for i in range(count):
        anchor = 10 ** (9 + 4 * (i + 0.5) / count)
        out.append(next_prime(int(anchor * rng.uniform(0.98, 1.02))))
    return out


def _pair(rng: random.Random, b: int) -> tuple[int, int]:
    """Bundle integers k, l: a divisor of the modulus b times -3..3, so the
    p-parts of gcd(k, b) vary and both verdicts occur."""
    divisors = [d for d in range(1, b + 1) if b % d == 0]
    return tuple(rng.choice(divisors) * rng.randint(-3, 3) for _ in range(2))


def queries(seed: int) -> list[Op]:
    """A stream of single-answer commands for one closed-loop client."""
    rng = random.Random(f"queries:{seed}")
    ops: list[Op] = []

    big = large_primes(rng, 24)
    rng.shuffle(big)
    sp_primes = [None] * 44 + big[:16]
    spin_primes = [None] * 22 + big[16:]

    def small_prime(n: int) -> int:
        # half the time a prime dividing 4n(2n+1), so p-parts differ
        b = 4 * n * (2 * n + 1)
        pool = [q for q in SMALL_PRIMES if b % q == 0] if rng.random() < 0.5 else SMALL_PRIMES
        return rng.choice(pool)

    for p in sp_primes:
        n = rng.randint(1, 12)
        p = p or small_prime(n)
        k, l = _pair(rng, 4 * n * (2 * n + 1))
        fmt = rng.choice(FORMATS)
        argv = ("classify", "sp", "--n", str(n), "--p", str(p),
                "--k", str(k), "--l", str(l)) + _fmt_args(fmt)
        ops.append(Op("classify-sp", argv,
                      params={"n": n, "p": p, "k": k, "l": l, "format": fmt}))
    for p in spin_primes:
        n = rng.randint(3, 12)
        p = p or small_prime(n)
        eps = rng.choice((1, 2))
        k, l = _pair(rng, 4 * n * (2 * n + 1))
        fmt = rng.choice(FORMATS)
        argv = ("classify", "spin", "--n", str(n), "--epsilon", str(eps),
                "--k", str(k), "--l", str(l), "--p", str(p)) + _fmt_args(fmt)
        ops.append(Op("classify-spin", argv,
                      params={"n": n, "epsilon": eps, "p": p, "k": k, "l": l,
                              "format": fmt}))
    for n in _strata(rng, 1, 20, 40):
        n *= 2
        ks = [rng.choice((0, rng.randint(-10_000, 10_000)))
              for _ in range(rng.randint(1, 3))]
        fmt = rng.choice(FORMATS)
        argv = ("invariant", "--n", str(n))
        for k in ks:
            argv += ("--k", str(k))
        ops.append(Op("invariant", argv + _fmt_args(fmt),
                      params={"n": n, "ks": ks, "format": fmt}))
    for _ in range(30):
        family = rng.choice(FAMILIES)
        p = rng.choice(SMALL_PRIMES)
        fmt = rng.choice(FORMATS)
        argv = ("retractible", "--family", family, "--p", str(p))
        params = {"family": family, "p": p, "n": None, "format": fmt}
        if family in RANKED:
            params["n"] = rng.randint(1, 30)
            argv += ("--n", str(params["n"]))
        ops.append(Op("retractible", argv + _fmt_args(fmt), params=params))
    gens = [(n, "series") for n in _strata(rng, 1, 60, 30)]
    gens += [(rng.randint(1, 3), "printed") for _ in range(10)]
    for n, backend in gens:
        fmt = rng.choice(FORMATS)
        argv = ("phi-gens", "--n", str(n), "--backend", backend)
        ops.append(Op("phi-gens", argv + _fmt_args(fmt),
                      params={"n": n, "backend": backend, "format": fmt}))
    for n in _strata(rng, 1, 200, 30):
        fmt = rng.choice(FORMATS)
        ops.append(Op("order", ("order", "--n", str(n)) + _fmt_args(fmt),
                      params={"n": n, "format": fmt}))

    rng.shuffle(ops)
    ops += [Op("bad-input", argv, expect_rc=2) for argv in BAD_INPUT]
    return ops


def build(name: str, seed: int) -> list[Op]:
    return {"sweep": sweep, "grid": grid, "queries": queries}[name](seed)
