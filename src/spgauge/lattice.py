"""Integer matrices, Smith normal form, and cokernel invariants.

All entries are arbitrary-precision Python ints, checked once when an
IntMatrix is built: anything else raises OutOfRange.  The Smith reduction
works on row lists and tracks the unimodular transforms (U A V = D), so
element orders in cokernels can be read off exactly; they need only U and
D, so they skip V.  Pivot selection is deterministic (smallest nonzero
absolute value, ties broken by lowest row then lowest column) so the
transforms are reproducible run to run.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm, prod

from .errors import DimensionMismatch, OutOfRange


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major.  Every entry must
    be an int, else OutOfRange."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.rows, int) and isinstance(self.cols, int)):
            raise OutOfRange("matrix dimensions must be integers")
        if self.rows < 1 or self.cols < 1:
            raise OutOfRange("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match dimensions")
        if not all(map(isinstance, self.entries, repeat(int))):
            raise OutOfRange("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not (isinstance(rows, Sequence)
                and all(isinstance(row, Sequence) for row in rows)):
            raise OutOfRange("matrix rows must be sequences")
        if not rows or not rows[0]:
            raise OutOfRange("matrix dimensions must be positive")
        ncols = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return cls(len(rows), ncols, tuple(flat))

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise OutOfRange(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            sum(map(operator.mul, self.row(i), col))
            for i in range(self.rows) for col in columns
        ))

    def diagonal(self) -> list[int]:
        return [self.get(i, i) for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant needs a square matrix")
        n = self.rows
        m = self.to_lists()
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


@dataclass(frozen=True)
class SmithForm:
    """U A V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


@dataclass(frozen=True)
class FinAbGroup:
    """Invariants of a finitely generated abelian group.

    invariant_factors lists the nontrivial cyclic orders (each >= 2, each
    dividing the next); free_rank counts the Z summands.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return prod(self.invariant_factors)


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with transforms.

    Returns SmithForm(u, d, v) with u*a*v == d, |det u| = |det v| = 1, d
    diagonal with nonnegative entries forming a divisibility chain.  Pivots
    are chosen as the smallest nonzero absolute value in the working block,
    ties broken by lowest row then lowest column, so the output is
    deterministic.
    """
    return SmithForm(*(
        IntMatrix(len(rows), len(rows[0]), tuple(chain.from_iterable(rows)))
        for rows in _reduce(a, track_v=True)
    ))


def _reduce(
    a: IntMatrix, track_v: bool
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """The Smith reduction behind smith_normal_form: (u, d, v) as row lists.

    Without track_v the column operations touch d alone and v is empty,
    which is all a caller reading only u and d needs.
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)] if track_v else []

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def add_row(src, dst, q):
        # row_dst -= q * row_src, mirrored in u so d == u * a * v holds
        if q:
            d[dst] = [x - q * y for x, y in zip(d[dst], d[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def find_pivot(t):
        best = None
        best_abs = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best_abs):
                    best = (i, j)
                    best_abs = abs(e)
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break

        # Clear column t below and row t to the right.  Each pass moves the
        # smallest entry of the block into the pivot slot and reduces the
        # rest of its row and column by it; any surviving remainder is
        # strictly smaller than the pivot, so the pivot shrinks every dirty
        # pass and the loop terminates.  Re-selecting the pivot per pass
        # keeps quotients, and hence entry growth, small.
        while True:
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(t, i, d[i][t] // p)
                    if d[i][t]:
                        dirty = True
            # column j -= q * column t, with the pivot row's entry set to
            # the remainder directly; rows above t are zero in column t
            pivot_row, below = d[t], d[t + 1:]
            for j in range(t + 1, n):
                if pivot_row[j]:
                    q, r = divmod(pivot_row[j], p)
                    if q:
                        pivot_row[j] = r
                        for row in below:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if r:
                        dirty = True
            if not dirty:
                break
            pivot = find_pivot(t)

        # The pivot must divide the rest of the block before it is frozen,
        # or the diagonal would not form a divisibility chain.  Folding an
        # offending row into row t reintroduces the entry and the next pass
        # replaces the pivot by a proper divisor.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, -1)
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    return u, d, v


def cokernel(a: IntMatrix) -> FinAbGroup:
    """Invariants of Z^rows / column-span(a)."""
    d = _reduce(a, track_v=False)[1]
    nonzero = [d[i][i] for i in range(min(a.rows, a.cols)) if d[i][i] != 0]
    return FinAbGroup(
        invariant_factors=tuple(x for x in nonzero if x >= 2),
        free_rank=a.rows - len(nonzero),
    )


def element_order_in_coker(a: IntMatrix, v: Sequence[int]) -> int | None:
    """Order of the class of v in Z^rows / column-span(a).

    Returns the least m >= 1 with m*v in the column span, or None when no
    such m exists (infinite order).  The zero class has order 1.  Entries
    of v must be ints, as in an IntMatrix, else OutOfRange.
    """
    if not isinstance(v, Sequence):
        raise OutOfRange("the vector must be a sequence")
    if len(v) != a.rows:
        raise DimensionMismatch(
            f"vector length {len(v)} does not match {a.rows} rows"
        )
    column = IntMatrix(a.rows, 1, tuple(v)).entries
    u, d, _ = _reduce(a, track_v=False)
    order = 1
    for i, row in enumerate(u):
        wi = sum(map(operator.mul, row, column))
        di = d[i][i] if i < a.cols else 0
        if di == 0:
            if wi != 0:
                return None
        else:
            order = lcm(order, di // gcd(di, wi))
    return order
