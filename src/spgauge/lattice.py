"""Integer matrices as row lists: Smith normal form and element orders in
cokernels.

A matrix is a sequence of equal-length rows of ints, each function checking
it once per call (anything else raises OutOfRange) and reducing a fresh
copy, so no call changes the rows it was given.  The product and
determinant that verify judges a Smith form with live in oracles.  The
nonzero diagonal entries of D are the cyclic orders of the cokernel
Z^rows / column-span, and the rows less their count are its free rank;
verify reads both off D.  The Smith reduction tracks the unimodular
transforms (U A V = D), so element orders in cokernels can be read off
exactly; they need only U and D, so they skip V.  Pivot selection is
deterministic (smallest nonzero absolute value, ties broken by lowest row
then lowest column) so the transforms are reproducible run to run.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from math import gcd, lcm

from .errors import OutOfRange


def _checked(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """A fresh copy of the matrix a as a list of int rows, else OutOfRange."""
    if not (isinstance(a, Sequence)
            and all(isinstance(row, Sequence) for row in a)):
        raise OutOfRange("matrix rows must be sequences")
    if not a or not a[0]:
        raise OutOfRange("matrix dimensions must be positive")
    ncols = len(a[0])
    if any(len(row) != ncols for row in a):
        raise OutOfRange("ragged rows")
    rows = [list(row) for row in a]
    if not all(type(x) is int for row in rows for x in row):
        raise OutOfRange("matrix entries must be integers")
    return rows


def smith_normal_form(
    a: Sequence[Sequence[int]]
) -> tuple[list[list[int]], ...]:
    """Smith normal form with transforms.

    Returns the row lists (u, d, v) with u*a*v == d, |det u| = |det v| = 1, d
    diagonal with nonnegative entries forming a divisibility chain.  Pivots
    are chosen as the smallest nonzero absolute value in the working block,
    ties broken by lowest row then lowest column, so the output is
    deterministic.
    """
    return _reduce(_checked(a), track_v=True)


def _reduce(
    d: list[list[int]], track_v: bool
) -> tuple[list[list[int]], ...]:
    """The Smith reduction behind smith_normal_form: reduces the checked
    rows d in place and returns (u, d, v).

    Without track_v the column operations touch d alone and v is empty,
    which is all a caller reading only u and d needs.
    """
    m, n = len(d), len(d[0])
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


def element_order_in_coker(
    a: Sequence[Sequence[int]], v: Sequence[int]
) -> int | None:
    """Order of the class of v in Z^rows / column-span(a).

    Returns the least m >= 1 with m*v in the column span, or None when no
    such m exists (infinite order).  The zero class has order 1.  Entries
    of v must be ints, as entries of a are, else OutOfRange.
    """
    rows = _checked(a)
    if not isinstance(v, Sequence):
        raise OutOfRange("the vector must be a sequence")
    if len(v) != len(rows):
        raise OutOfRange(
            f"vector length {len(v)} does not match {len(rows)} rows")
    if not all(type(x) is int for x in v):
        raise OutOfRange("matrix entries must be integers")
    u, d, _ = _reduce(rows, track_v=False)
    order = 1
    for i, row in enumerate(u):
        wi = sum(map(operator.mul, row, v))
        di = d[i][i] if i < len(d[0]) else 0
        if di == 0:
            if wi != 0:
                return None
        else:
            order = lcm(order, di // gcd(di, wi))
    return order
