"""Exact integer and rational helpers.

Everything in the package runs on arbitrary-precision integers and
`fractions.Fraction`; there are no floats anywhere.  This module collects the
number-theoretic primitives the pipelines share: the integer, rank and prime
guards, which refuse anything that is not an int, the Samelson order
B = 4n(2n+1), bounded deterministic primality, the p-adic valuation that
gauge reads every p-part with, and rational subgroup generators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import OutOfRange


def require_int(what: str, *values: int) -> None:
    """Raise OutOfRange unless every value is an int; what names them."""
    for x in values:
        if not isinstance(x, int):
            raise OutOfRange(f"{what} must be an integer, got {x!r}")


def require_rank(n: int) -> None:
    """Raise OutOfRange unless the rank n is a positive integer."""
    if not isinstance(n, int) or n < 1:
        raise OutOfRange(f"rank must be a positive integer, got {n!r}")


def closed_form_order(n: int) -> int:
    """B = 4n(2n+1), the closed form the pipeline output is checked against."""
    require_int("the rank", n)
    return 4 * n * (2 * n + 1)


# Miller-Rabin on the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); is_prime refuses p from there up.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def require_prime(p: int) -> None:
    """Raise OutOfRange unless p is a prime below PRIME_BOUND."""
    if not is_prime(p):
        raise OutOfRange(f"{p} is not prime")


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the bases _MR_BASES, in O(log^3 p).

    Exact for every p below PRIME_BOUND; raises OutOfRange for every p at or
    above it, an even one too, rather than guess, and for a p that is not an
    int.
    """
    require_int("p", p)
    if p >= PRIME_BOUND:
        raise OutOfRange(
            f"primality is decided only below {PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p < 43 * 43:
        return True  # no prime factor up to 41, and 43 is the next prime
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def valuation(a: int, p: int) -> int:
    """Exponent r of the exact power p**r dividing a, unchecked: the caller
    has already made sure a is nonzero and p prime."""
    a = abs(a)
    r = 0
    while a % p == 0:
        a //= p
        r += 1
    return r


def frac_gcd(values: Iterable[Fraction | int]) -> Fraction:
    """Positive generator of the additive subgroup of Q spanned by values.

    Every input is an integer multiple of the result, and the result is an
    integer combination of the inputs.  Computed by clearing denominators:
    the gcd of the scaled numerators over the lcm of the denominators.
    Raises OutOfRange when no nonzero value is supplied and for a value
    that is neither an int nor a Fraction.
    """
    vals = list(values)
    for x in vals:
        if not isinstance(x, (int, Fraction)):
            raise OutOfRange(
                f"a frac_gcd value must be an int or a Fraction, got {x!r}")
    nonzero = [Fraction(v) for v in vals if v != 0]
    if not nonzero:
        raise OutOfRange("frac_gcd needs at least one nonzero value")
    denom = math.lcm(*(v.denominator for v in nonzero))
    num = math.gcd(*(v.numerator * (denom // v.denominator) for v in nonzero))
    return Fraction(num, denom)

