"""Independent oracles, which verify holds the engine's answers against.

Each recomputes by its own route a value the engine computes too, or a
value another oracle here computes: the Samelson order B = 4n(2n+1),
p-parts, surjection counts, the powers of e^x - 1 (whose coefficients are
surjection counts), self-maps of a small set by image size, and cokernels
by brute-force coset enumeration.
The matrix product and determinant that judge a Smith form work on row
lists, as the engine's lattice does.  Nothing from the package is imported
but errors, so a fault in the engine cannot show on both sides of a check
and cancel.
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


def samelson_b(n: int) -> int:
    """B = 4n(2n+1), the Samelson order, written apart from the engine's
    closed form so that a wrong B there fails a check."""
    return 4 * n * (2 * n + 1)


def gcd_p_part(a: int, p: int) -> int:
    """The p-part of a > 0, as gcd(a, p^e) with p^e > a; it shares no code
    with the valuation loop of the engine."""
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
    Raises OutOfRange for m < 1 or top < 0.
    """
    if m < 1 or top < 0:
        raise OutOfRange("surjection_counts requires m >= 1 and top >= 0")
    last = min(top, m)
    row = _differences_at_zero([j ** m for j in range(last + 1)])
    return row + [0] * (top - last)


def surjection_counts_by_rank(max_n: int) -> Iterator[list[int]]:
    """surjection_counts(2n - 1, n) for n = 1, 2, ..., max_n, in order.

    Carries the table of powers j^(2n-1), j = 0..n, from rank to rank: each
    rank multiplies every entry by j * j and appends n^(2n-1), then
    differences the table afresh.  No rank reads the counts of the one
    before, so the stream stays an inclusion-exclusion oracle, apart from
    the Stirling recurrence of phi.  Raises OutOfRange for max_n < 1 at the
    call, before any item is made.
    """
    if max_n < 1:
        raise OutOfRange(f"rank must be a positive integer, got {max_n}")
    return _surjection_rows_by_rank(max_n)


def _surjection_rows_by_rank(max_n: int) -> Iterator[list[int]]:
    powers = [0]  # j^(2n-1) for j = 0..n-1, before rank n
    for n in range(1, max_n + 1):
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
    if not isinstance(max_deg, int):
        raise OutOfRange(f"max_deg must be an integer, got {max_deg!r}")
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
    increasing), built by gcd insertion: the brute-force coset enumeration
    oracle.  reduce() maps a vector to the canonical representative of its
    coset (every pivot coordinate lands in [0, pivot)), so cosets can be
    enumerated and compared without any Smith-form machinery."""

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


def matrix_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two row-list matrices, each entry a sum of products;
    OutOfRange when a row of a is not as long as b."""
    if any(len(row) != len(b) for row in a):
        raise OutOfRange("inner dimensions differ")
    columns = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square row-list matrix by fraction-free
    (Bareiss) elimination; OutOfRange unless it is square and not
    empty."""
    n = len(rows)
    if not rows or any(len(row) != n for row in rows):
        raise OutOfRange("determinant needs a square matrix")
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: the division by the previous pivot is exact
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def divisors(x: int) -> list[int]:
    out = []
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            if d != x // d:
                out.append(x // d)
        d += 1
    return sorted(out)
