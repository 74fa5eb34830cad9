"""Truncated formal power series over exact rationals.

Carries the coefficient arithmetic behind the Chern-character top
coefficients of powers of the reduced Hopf class, including the alternative
composition-sum formula kept around for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .arith import surjections
from .errors import OutOfRange

BACKENDS = ("series", "printed")


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at max_deg; coeffs[m] is the x^m coefficient."""

    max_deg: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.max_deg < 0:
            raise OutOfRange("max_deg must be nonnegative")
        if len(self.coeffs) != self.max_deg + 1:
            raise OutOfRange("coefficient tuple must have max_deg + 1 entries")

    def coeff(self, m: int) -> Fraction:
        if not 0 <= m <= self.max_deg:
            raise OutOfRange(f"degree {m} outside truncation 0..{self.max_deg}")
        return self.coeffs[m]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.max_deg != other.max_deg:
            raise OutOfRange("truncation degrees differ")
        n = self.max_deg
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, tuple(out))

    def pow(self, k: int) -> "TruncatedSeries":
        if k < 1:
            raise OutOfRange("pow expects k >= 1")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result


def exp_minus_one(max_deg: int) -> TruncatedSeries:
    """The series e^x - 1 truncated at max_deg: coefficients 1/m! for m >= 1."""
    coeffs = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, max_deg + 1)]
    return TruncatedSeries(max_deg, tuple(coeffs))


def exp_minus_one_pow(k: int, max_deg: int) -> TruncatedSeries:
    """(e^x - 1)^k truncated at max_deg.

    The x^m coefficient equals surjections(m, k)/m!, the exponential
    generating identity for surjection counts; tests hold the two routes
    against each other.
    """
    return exp_minus_one(max_deg).pow(k)


def _composition_base(max_deg: int) -> TruncatedSeries:
    # base series sum_{r>=1} x^r / (r! (2r-1)!) whose k-th power collects the
    # composition-sum formula's terms
    coeffs = [Fraction(0)] + [
        Fraction(1, factorial(r) * factorial(2 * r - 1)) for r in range(1, max_deg + 1)
    ]
    return TruncatedSeries(max_deg, tuple(coeffs))


def top_coeff(n: int, k: int, backend: str = "series") -> Fraction:
    """Top Chern-character coefficient attached to the k-th Hopf power in rank n.

    series:  the x^(2n-1) coefficient of (e^x - 1)^k, which equals
             surjections(2n-1, k)/(2n-1)!.
    printed: the composition-sum variant, the sum over r_1+..+r_k = 2n-1
             (all r_i >= 1) of (2n-1)!/(prod r_i!) * prod 1/(2 r_i - 1)!,
             evaluated as (2n-1)! times the x^(2n-1) coefficient of the k-th
             power of sum_{r>=1} x^r/(r!(2r-1)!).  It disagrees with the
             series value for k >= 2 and is retained only for comparison.
    """
    if n < 1 or k < 1 or k > n:
        raise OutOfRange(f"need 1 <= k <= n, got n={n}, k={k}")
    m = 2 * n - 1
    if backend == "series":
        return Fraction(surjections(m, k), factorial(m))
    if backend == "printed":
        if k == 1:
            # single composition (m,): the formula collapses to 1/(2m-1)!
            return Fraction(1, factorial(2 * m - 1))
        base = _composition_base(m)
        return factorial(m) * base.pow(k).coeff(m)
    raise OutOfRange(f"unknown backend {backend!r}; expected one of {BACKENDS}")
