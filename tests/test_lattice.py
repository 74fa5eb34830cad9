"""Unit tests for integer matrices, Smith normal form and element orders in
cokernels, and for the oracle matrix product and determinant that judge a
Smith form."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spgauge.errors import OutOfRange
from spgauge.lattice import element_order_in_coker, smith_normal_form
from spgauge.oracles import determinant, matrix_product


def test_matrices_are_row_lists_in_and_out():
    u, d, v = smith_normal_form(((2, 4), (6, 8)))
    for m in (u, d, v):
        assert type(m) is list
        assert all(type(row) is list for row in m)
        assert all(type(x) is int for row in m for x in row)
    assert (len(u), len(d), len(d[0]), len(v)) == (2, 2, 2, 2)
    assert matrix_product(matrix_product(u, [[2, 4], [6, 8]]), v) == d


def test_matrix_mul():
    a = [[1, 2], [3, 4]]
    assert matrix_product(a, [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert matrix_product(a, [[1], [-1]]) == [[-1], [-1]]
    with pytest.raises(OutOfRange, match="^inner dimensions differ$"):
        matrix_product(a, [[1, 2, 3]])


def test_mul_matches_the_entrywise_sum_on_random_matrices():
    rng = random.Random(20260819)
    for _ in range(300):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        a = [[rng.randint(-20, 20) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(inner)]
        assert matrix_product(a, b) == [
            [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]


def test_det_frozen_values():
    assert determinant(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[3, 1, 4], [1, 5, 9], [2, 6, 5]]) == -90
    with pytest.raises(OutOfRange,
                       match="^determinant needs a square matrix$"):
        determinant([[1, 2, 3]])


def _permanent_free_det(m):
    """Cofactor-expansion determinant, an independent slow route."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _permanent_free_det(minor)
        total += -term if j % 2 else term
    return total


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n,
)))
def test_det_matches_cofactor_expansion(rows):
    assert determinant(rows) == _permanent_free_det(rows)


def _diagonal(m):
    return [m[i][i] for i in range(min(len(m), len(m[0])))]


def _judged(a):
    """The Smith form of a with U A V = D and |det U| = |det V| = 1
    checked by the oracles, as row lists (u, d, v)."""
    u, d, v = smith_normal_form(a)
    assert matrix_product(matrix_product(u, a), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    return u, d, v


_IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_smith_frozen_examples():
    assert _diagonal(_judged([[2, 0], [0, 3]])[1]) == [1, 6]
    assert _diagonal(_judged([[0]])[1]) == [0]
    assert _diagonal(_judged(_IDENTITY_3)[1]) == [1, 1, 1]
    assert _diagonal(_judged([[6, 4]])[1]) == [2]
    assert _diagonal(_judged([[-5]])[1]) == [5]


def test_smith_previously_pathological_instance():
    # dense 6x6 instance that once drove the clearing loop into huge entries
    a = [
        [3, 15, 2, 8, 1, -2],
        [4, 16, -10, 6, 17, 11],
        [0, -13, 2, 20, -15, -17],
        [8, -11, 13, 15, -2, -7],
        [9, 3, -17, -14, 20, -14],
        [10, -20, 19, -16, 1, -19],
    ]
    assert _diagonal(_judged(a)[1]) == [1, 1, 1, 1, 1, 6828471]


_matrix_strategy = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-30, 30), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    )
)


@settings(max_examples=150)
@given(_matrix_strategy)
def test_smith_properties(rows):
    # exact factorization with unimodular transforms
    d = _judged(rows)[1]
    diag = _diagonal(d)
    assert all(x >= 0 for x in diag)
    for prev, nxt in zip(diag, diag[1:]):
        if prev == 0:
            assert nxt == 0
        else:
            assert nxt % prev == 0
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


@settings(max_examples=100)
@given(_matrix_strategy)
def test_smith_is_deterministic(rows):
    assert smith_normal_form(rows) == smith_normal_form(rows)


def test_cokernel_examples():
    # the nonzero diagonal entries are the cyclic orders of
    # Z^rows / column-span, and the rows less their count the free rank
    def cyclic(a):
        return [x for x in _diagonal(_judged(a)[1]) if x]

    assert cyclic([[2, 0], [0, 3]]) == [1, 6]  # Z/6
    assert cyclic([[2], [0]]) == [2]  # Z/2 + Z
    assert cyclic(_IDENTITY_3) == [1, 1, 1]  # trivial
    assert cyclic([[0]]) == []  # Z


def test_element_order_examples():
    forty = [[40]]
    assert element_order_in_coker(forty, [1]) == 40
    assert element_order_in_coker(forty, [8]) == 5
    assert element_order_in_coker(forty, [0]) == 1
    assert element_order_in_coker(
        [[2, 0], [0, 3]], [1, 1]) == 6
    # free direction: no multiple of (0,1) lands in the span of (2,0)
    assert element_order_in_coker(
        [[2], [0]], [0, 1]) is None
    with pytest.raises(OutOfRange,
                       match="^vector length 2 does not match 1 rows$"):
        element_order_in_coker(forty, [1, 2])


@settings(max_examples=100)
@given(_matrix_strategy, st.lists(st.integers(-10, 10), min_size=1, max_size=5))
def test_element_order_annihilates(a, vec):
    v = (vec * 5)[: len(a)]
    order = element_order_in_coker(a, v)
    if order is None:
        return
    assert order >= 1
    # order * v must be in the column span: solve via the Smith form
    u, d, _ = _judged(a)
    w = [row[0] for row in matrix_product(u, [[order * x] for x in v])]
    diag = _diagonal(d)
    for i, wi in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            assert wi == 0
        else:
            assert wi % di == 0


@settings(max_examples=100)
@given(_matrix_strategy, st.booleans())
def test_no_call_changes_the_rows_it_was_given(rows, as_tuples):
    # each call reduces a copy of the rows, whether lists or tuples
    a = tuple(map(tuple, rows)) if as_tuples else rows
    v = [1] * len(rows)
    before = [list(row) for row in rows], list(v)
    answers = (smith_normal_form(a), element_order_in_coker(a, v))
    assert ([list(row) for row in a], v) == before
    assert answers == (smith_normal_form(rows),
                       element_order_in_coker(rows, tuple(v)))
