"""Independent answers for every command the workloads run.

Nothing here imports spgauge: each value is computed afresh from its
closed form, so a check compares the program against arithmetic it does not
share.  Sources:

- Samelson order: 4n(2n+1).
- Image generators: 4n(2n+1) for zeta1, and for k >= 2
  (2n+1)! * k! S(2n-1, k) / (2n-1)! = 2n(2n+1) k! S(2n-1, k), with the
  Stirling numbers S from the recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1).
- The printed backend's coefficient by direct enumeration of compositions.
- Verdicts: p^v where v is this module's p-adic valuation of gcd(k, B),
  B = 4n(2n+1), under the guard (p-1)^2 + 1 >= 2n.
- Invariants: gcd((2n+1)!/3, |k|(2n-1)!/6), 4n(2n+1)/gcd(k, B) and the
  Sutherland moduli n(2n+1) (even n) and 4n(2n+1) (odd n).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd


def order(n: int) -> int:
    return 4 * n * (2 * n + 1)


def stirling_row(m: int) -> list[int]:
    """S(m, 0..m), Stirling numbers of the second kind, by the recurrence."""
    row = [1]
    for i in range(1, m + 1):
        row = [0] + [j * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)]
    return row


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def printed_top(n: int, k: int) -> Fraction:
    """The composition-sum coefficient: sum over r_1+..+r_k = 2n-1, r_i >= 1,
    of (2n-1)!/prod r_i! * prod 1/(2 r_i - 1)!."""
    m = 2 * n - 1
    if k == 1:
        return Fraction(1, factorial(2 * m - 1))
    total = Fraction(0)
    for comp in _compositions(m, k):
        term = Fraction(factorial(m))
        for r in comp:
            term /= factorial(r) * factorial(2 * r - 1)
        total += term
    return total


def phi_gens(n: int, backend: str) -> list[tuple[str, Fraction, int]]:
    """(name, top coefficient, image generator) rows for phi-gens."""
    m = 2 * n - 1
    s = stirling_row(m)
    rows = [("zeta1", Fraction(2, factorial(m)), order(n))]
    for k in range(2, n + 1):
        if backend == "series":
            top = Fraction(factorial(k) * s[k], factorial(m))
            gen = 2 * n * (2 * n + 1) * factorial(k) * s[k]
        else:
            top = printed_top(n, k)
            scaled = factorial(2 * n + 1) * top
            if scaled.denominator != 1:
                raise ValueError(f"printed generator not integral at n={n}")
            gen = abs(scaled.numerator)
        rows.append((f"xi{k}", top, gen))
    return rows


def valuation(a: int, p: int) -> int:
    """Exponent of p in the nonzero integer a."""
    a = abs(a)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def local_value(n: int, k: int, p: int) -> int:
    """p-part of gcd(k, 4n(2n+1)), with gcd(0, B) = B."""
    return p ** valuation(gcd(k, order(n)), p)


def retract_guard(n: int, p: int) -> bool:
    return (p - 1) ** 2 + 1 >= 2 * n


def verdict(values: tuple[int, int], guards: bool) -> str:
    if not guards:
        return "not-determined"
    return "equivalent" if values[0] == values[1] else "distinct"


def classify_sp(n: int, k: int, l: int, p: int) -> dict[str, str]:
    values = (local_value(n, k, p), local_value(n, l, p))
    guards = retract_guard(n, p)
    return {
        "outcome": verdict(values, guards),
        "invariant_k": str(values[0]),
        "invariant_l": str(values[1]),
        "guards_passed": fmt_bool(guards),
    }


def classify_spin(n: int, k: int, l: int, p: int) -> dict[str, str]:
    values = (local_value(n, k, p), local_value(n, l, p))
    guards = 2 * n >= 6 and p != 2 and retract_guard(n, p)
    return {
        "outcome": verdict(values, guards),
        "invariant_k": str(values[0]),
        "invariant_l": str(values[1]),
        "guards_passed": fmt_bool(guards),
    }


def invariant(n: int, k: int) -> dict[str, str]:
    b = order(n)
    modulus = n * (2 * n + 1) if n % 2 == 0 else b
    row = {
        "n": str(n),
        "k": str(k),
        "sutherland": str(gcd(k, modulus)),
        "refined": str(gcd(k, b)),
    }
    if n % 2 == 0:
        q2 = gcd(factorial(2 * n + 1) // 3, abs(k) * factorial(2 * n - 1) // 6)
        g = gcd(k, b)
        row.update({
            "q2_order": str(q2),
            "q2_gcd_form": str(g),
            "q2_matches_gcd_form": fmt_bool(q2 == g),
            "boundary_image_order": str(b // g),
            "boundary_factorial_form": str(factorial(2 * n + 1) // (3 * g)),
        })
    return row


_EXCEPTIONAL_MIN_PRIME = {"G2": 5, "F4": 5, "E6": 5, "E7": 7, "E8": 7}


def retractible(family: str, n: int | None, p: int) -> bool:
    if family in _EXCEPTIONAL_MIN_PRIME:
        return p >= _EXCEPTIONAL_MIN_PRIME[family]
    bound = n if family == "SU" else 2 * n
    return (p - 1) ** 2 + 1 >= bound


def fmt_bool(x: bool) -> str:
    return "true" if x else "false"
