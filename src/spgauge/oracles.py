"""Independent oracles, which verify holds the engine's answers against.

Each recomputes by its own route a value the engine computes too, or a
value another oracle here computes: the Samelson order B = 4n(2n+1), the
closed forms of the rank-2 mapping pipeline, p-parts, surjection counts,
the powers of e^x - 1 (whose coefficients are surjection counts),
self-maps of a small set by image size, and the divisors that count the
classes of gcd(k, B).  Nothing from the package is imported but errors, so
a fault in the engine cannot show on both sides of a check and cancel.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import factorial, gcd
from typing import Iterator

from .errors import OutOfRange


def _require_int(**values: int) -> None:
    """Raise OutOfRange unless every value is an int, and not a bool or
    another subclass of int, naming the first that is not."""
    for name, x in values.items():
        if type(x) is not int:
            raise OutOfRange(f"{name} must be an integer, got {x!r}")


def samelson_b(n: int) -> int:
    """B = 4n(2n+1), the Samelson order, written apart from the engine's
    closed form so that a wrong B there fails a check."""
    _require_int(n=n)
    return 4 * n * (2 * n + 1)


def rank2_factor(n: int) -> int:
    """c(n) = (2n-1)!/6 for n >= 2: the rank-2 mapping group order is c(n)B
    and its quotient by the k-th connecting image c(n)gcd(k, B), since
    (2n+1)!/3 = c(n)B and gcd(c(n)B, c(n)k) = c(n)gcd(k, B)."""
    _require_int(n=n)
    return factorial(2 * n - 1) // 6


def gcd_p_part(a: int, p: int) -> int:
    """The p-part of a > 0, as gcd(a, p^e) with p^e > a; it shares no code
    with the valuation loop of the engine."""
    _require_int(a=a, p=p)
    return gcd(a, p ** a.bit_length())


def _differences_at_zero(values: list[int]) -> list[int]:
    """The k-th forward differences at 0 of values, for k = 0..len - 1.

    Each pass differences the table in C with map and keeps its head, which
    is then final: pass k leaves the k-th difference at 0 in front.
    """
    out = []
    while values:
        out.append(values[0])
        values = list(map(operator.sub, islice(values, 1, None), values))
    return out


def surjection_counts(m: int, top: int) -> list[int]:
    """surj(m, k) for k = 0..top: the numbers of surjections from an
    m-element set onto a k-element set.

    Inclusion-exclusion in finite-difference form: surj(m, k) =
    sum_j (-1)^(k-j) C(k,j) j^m is the k-th forward difference at 0 of
    j -> j^m (Graham-Knuth-Patashnik, Concrete Mathematics 6.1).  So the
    table j^m, j = 0..min(top, m), differenced once per k, yields the whole
    row in O(min(top, m)^2) subtractions, with no binomials.  Entries with
    k > m are 0, as a degree-m polynomial has no higher differences.
    Raises OutOfRange for an m or top that is not an int, m < 1 or top < 0.
    """
    _require_int(m=m, top=top)
    if m < 1 or top < 0:
        raise OutOfRange("surjection_counts requires m >= 1 and top >= 0")
    last = min(top, m)
    row = _differences_at_zero([j ** m for j in range(last + 1)])
    return row + [0] * (top - last)


def surjection_counts_by_rank(max_n: int,
                              start: int = 1) -> Iterator[list[int]]:
    """surjection_counts(2n - 1, n) for n = start, start + 1, ..., max_n,
    in order.

    Builds the table of powers j^(2n-1), j = 0..n, once at n = start, then
    carries it from rank to rank: each rank multiplies every entry by j * j
    and appends n^(2n-1), then differences the table afresh.  No rank reads
    the counts of the one before, so the stream stays an inclusion-exclusion
    oracle, apart from the Stirling recurrence of phi, and a stream that
    starts at a later rank differences only its own ranks.  Raises
    OutOfRange at the call, before any item is made, for a max_n or start
    that is not an int, a max_n below 1 or a start outside 1..max_n.
    """
    _require_int(max_n=max_n, start=start)
    if max_n < 1:
        raise OutOfRange(f"rank must be a positive integer, got {max_n}")
    if not 1 <= start <= max_n:
        raise OutOfRange(f"the first rank must lie in 1..{max_n}, got {start}")
    return _surjection_rows_by_rank(max_n, start)


def _surjection_rows_by_rank(max_n: int, start: int) -> Iterator[list[int]]:
    powers = [j ** (2 * start - 1) for j in range(start + 1)]
    for n in range(start, max_n + 1):
        if n > start:  # j^(2n-3), j = 0..n-1, to j^(2n-1), j = 0..n
            powers = [j * j * power for j, power in enumerate(powers)]
            powers.append(n ** (2 * n - 1))
        yield _differences_at_zero(powers)


def exp_minus_one_powers(max_deg: int) -> Iterator[list[Fraction]]:
    """(e^x - 1)^k for k = 1, 2, ..., truncated at max_deg, as lists of the
    x^0..x^max_deg coefficients; the stream never ends.

    m! times the x^m coefficient of the k-th power is surj(m, k), the
    exponential generating identity for surjection counts; verify holds
    the two routes against each other.  Each power is the one before times
    e^x - 1, a plain truncated product.  Raises OutOfRange at the call for
    a max_deg that is not an int or is negative.
    """
    _require_int(max_deg=max_deg)
    if max_deg < 0:
        raise OutOfRange("max_deg must be nonnegative")
    base = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, max_deg + 1)]

    def product(a, b):
        return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
                for m in range(max_deg + 1)]

    return itertools.accumulate(itertools.repeat(base), product)


def image_size_tally(m: int) -> Counter:
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


def divisors(x: int) -> list[int]:
    _require_int(x=x)
    out = []
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            if d != x // d:
                out.append(x // d)
        d += 1
    return sorted(out)
