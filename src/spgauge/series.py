"""Truncated formal power series over exact rationals, streamed as powers.

A series truncated at degree d is a list of d + 1 Fractions, entry m being
its x^m coefficient.  truncated_powers streams base, base^2, ... at one
product per power, and has two users: the powers of e^x - 1, an oracle
for surjection counts that shares no code with oracles, and the printed
backend's composition-sum coefficients, kept for comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Iterator

from .arith import require_rank
from .errors import OutOfRange


def truncated_powers(base: list[Fraction]) -> Iterator[list[Fraction]]:
    """base, base^2, base^3, ..., each truncated at the degree of base.

    The stream never ends; the caller takes what it needs."""
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


def exp_minus_one_powers(max_deg: int) -> Iterator[list[Fraction]]:
    """(e^x - 1)^k for k = 1, 2, ..., truncated at max_deg.

    m! times the x^m coefficient of the k-th power is surj(m, k), the
    exponential generating identity for surjection counts; verify holds
    the two routes against each other.  Raises OutOfRange for max_deg < 0.
    """
    if max_deg < 0:
        raise OutOfRange("max_deg must be nonnegative")
    base = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, max_deg + 1)]
    return truncated_powers(base)


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
    return (factorial(m) * power[m] for power in islice(truncated_powers(base), n))
