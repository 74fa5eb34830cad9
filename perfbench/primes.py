"""Deterministic Miller-Rabin primality, owned by the benchmark.

The benchmark draws its large query primes with this test and never with
the program's own primality code.  With the first thirteen primes as bases
the test is exact below 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017),
far above the 10-13 digit primes the workloads use.
"""

from __future__ import annotations

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= EXACT_BELOW:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n
