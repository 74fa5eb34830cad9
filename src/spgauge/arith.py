"""Exact integer and rational helpers.

Everything in the package runs on arbitrary-precision integers and
`fractions.Fraction`; there are no floats anywhere.  This module collects the
number-theoretic primitives the pipelines share: the rank and prime guards,
bounded deterministic primality, p-parts and rational subgroup generators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import AllZero, NotPrime, OutOfRange, ZeroArgument


def require_rank(n: int) -> None:
    """Raise OutOfRange unless the rank n is a positive integer."""
    if n < 1:
        raise OutOfRange(f"rank must be a positive integer, got {n}")


# Miller-Rabin on the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); is_prime refuses p from there up.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def require_prime(p: int) -> None:
    """Raise NotPrime unless p is prime; OutOfRange for p >= PRIME_BOUND."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the bases _MR_BASES, in O(log^3 p).

    Exact for every p below PRIME_BOUND; raises OutOfRange for every p at or
    above it, an even one too, rather than guess.
    """
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


def p_exponent(a: int, p: int) -> int:
    """Exponent r of the exact power p**r dividing a (a nonzero, p prime)."""
    if a == 0:
        raise ZeroArgument("p-adic exponent of 0 is undefined")
    require_prime(p)
    return valuation(a, p)


def p_part(a: int, p: int) -> int:
    """The p-part of a: the power p**r itself, not the exponent.

    p**r divides a and p**(r+1) does not.  Always a positive integer; use
    p_exponent for the exponent r.
    """
    return p ** p_exponent(a, p)


def frac_gcd(values: Iterable[Fraction | int]) -> Fraction:
    """Positive generator of the additive subgroup of Q spanned by values.

    Every input is an integer multiple of the result, and the result is an
    integer combination of the inputs.  Computed by clearing denominators:
    the gcd of the scaled numerators over the lcm of the denominators.
    Raises AllZero when no nonzero value is supplied.
    """
    vals = [Fraction(v) for v in values]
    nonzero = [v for v in vals if v != 0]
    if not nonzero:
        raise AllZero("frac_gcd needs at least one nonzero value")
    denom = math.lcm(*(v.denominator for v in nonzero))
    num = math.gcd(*(v.numerator * (denom // v.denominator) for v in nonzero))
    return Fraction(num, denom)

