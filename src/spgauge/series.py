"""The printed backend's composition-sum coefficients, kept for comparison.

A series truncated at degree d is a list of d + 1 Fractions, entry m being
its x^m coefficient.  printed_top_coeffs streams the powers of its base at
one product per power and reads one coefficient off each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Iterator

from .arith import require_rank


def _powers(base: list[Fraction]) -> Iterator[list[Fraction]]:
    """base, base^2, base^3, ..., each truncated at the degree of base; the
    stream never ends, and the caller takes what it needs."""
    size = len(base)
    power = base
    while True:
        yield power
        nxt = [Fraction(0)] * size
        for i, a in enumerate(power):
            if a:
                for j in range(size - i):
                    b = base[j]
                    if b:
                        nxt[i + j] += a * b
        power = nxt


def printed_top_coeffs(n: int) -> Iterator[Fraction]:
    """The printed backend's top coefficients at rank n, for k = 1..n.

    The k-th is the composition sum over r_1+..+r_k = 2n-1 (all r_i >= 1)
    of (2n-1)!/(prod r_i!) * prod 1/(2 r_i - 1)!, read as (2n-1)! times the
    x^(2n-1) coefficient of the k-th power of sum_{r>=1} x^r/(r!(2r-1)!).
    It disagrees with the series value surj(2n-1, k)/(2n-1)! for k >= 2 and
    is retained only for comparison.  Lazy: the k-th power is built only
    when the k-th coefficient is read.  Raises OutOfRange for n < 1.
    """
    require_rank(n)
    m = 2 * n - 1
    base = [Fraction(0)] + [
        Fraction(1, factorial(r) * factorial(2 * r - 1)) for r in range(1, m + 1)
    ]
    return (factorial(m) * power[m] for power in islice(_powers(base), n))
