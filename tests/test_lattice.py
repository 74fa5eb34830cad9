"""Unit tests for integer matrices, Smith normal form, and cokernels."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spgauge.errors import DimensionMismatch, OutOfRange
from spgauge.lattice import (
    FinAbGroup,
    IntMatrix,
    cokernel,
    element_order_in_coker,
    smith_normal_form,
)


def test_matrix_construction_and_access():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.get(1, 2) == 6
    assert a.row(0) == (1, 2, 3)
    assert a.to_lists() == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(OutOfRange):
        a.get(2, 0)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(OutOfRange):
        IntMatrix.from_rows([])


def test_matrix_mul_and_apply():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b).to_lists() == [[2, 1], [4, 3]]
    assert a.apply([1, -1]) == [-1, -1]
    with pytest.raises(DimensionMismatch):
        a.apply([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        a.mul(IntMatrix.from_rows([[1, 2, 3]]))


def test_mul_and_apply_match_the_entrywise_sum_on_random_matrices():
    rng = random.Random(20260819)
    for _ in range(300):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        a = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(inner)] for _ in range(rows)])
        b = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(inner)])
        product = a.mul(b)
        assert (product.rows, product.cols) == (rows, cols)
        assert product.to_lists() == [
            [sum(a.get(i, t) * b.get(t, j) for t in range(inner))
             for j in range(cols)]
            for i in range(rows)
        ]
        vec = [rng.randint(-20, 20) for _ in range(inner)]
        column = IntMatrix.from_rows([[x] for x in vec])
        assert a.apply(vec) == list(a.mul(column).entries)


def test_det_frozen_values():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix.from_rows(
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    ).det() == -90
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2, 3]]).det()


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
    assert IntMatrix.from_rows(rows).det() == _permanent_free_det(rows)


def test_smith_frozen_examples():
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.d.diagonal() == [1, 6]
    assert s.u.mul(IntMatrix.from_rows([[2, 0], [0, 3]])).mul(s.v).entries \
        == s.d.entries
    assert smith_normal_form(IntMatrix.from_rows([[0]])).d.diagonal() == [0]
    assert smith_normal_form(IntMatrix.identity(3)).d.diagonal() == [1, 1, 1]
    assert smith_normal_form(IntMatrix.from_rows([[6, 4]])).d.diagonal() == [2]
    assert smith_normal_form(IntMatrix.from_rows([[-5]])).d.diagonal() == [5]


def test_smith_previously_pathological_instance():
    # dense 6x6 instance that once drove the clearing loop into huge entries
    a = IntMatrix.from_rows([
        [3, 15, 2, 8, 1, -2],
        [4, 16, -10, 6, 17, 11],
        [0, -13, 2, 20, -15, -17],
        [8, -11, 13, 15, -2, -7],
        [9, 3, -17, -14, 20, -14],
        [10, -20, 19, -16, 1, -19],
    ])
    s = smith_normal_form(a)
    assert s.d.diagonal() == [1, 1, 1, 1, 1, 6828471]
    assert s.u.mul(a).mul(s.v).entries == s.d.entries
    assert abs(s.u.det()) == 1
    assert abs(s.v.det()) == 1


_matrix_strategy = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-30, 30), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    )
)


@settings(max_examples=150)
@given(_matrix_strategy)
def test_smith_properties(rows):
    a = IntMatrix.from_rows(rows)
    s = smith_normal_form(a)
    # exact factorization with unimodular transforms
    assert s.u.mul(a).mul(s.v).entries == s.d.entries
    assert abs(s.u.det()) == 1
    assert abs(s.v.det()) == 1
    diag = s.d.diagonal()
    assert all(x >= 0 for x in diag)
    for prev, nxt in zip(diag, diag[1:]):
        if prev == 0:
            assert nxt == 0
        else:
            assert nxt % prev == 0
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d.get(i, j) == 0


@settings(max_examples=100)
@given(_matrix_strategy)
def test_smith_is_deterministic(rows):
    a = IntMatrix.from_rows(rows)
    assert smith_normal_form(a) == smith_normal_form(a)


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == \
        FinAbGroup(invariant_factors=(6,), free_rank=0)
    assert cokernel(IntMatrix.from_rows([[2], [0]])) == \
        FinAbGroup(invariant_factors=(2,), free_rank=1)
    assert cokernel(IntMatrix.identity(3)) == \
        FinAbGroup(invariant_factors=(), free_rank=0)
    assert cokernel(IntMatrix.from_rows([[0]])) == \
        FinAbGroup(invariant_factors=(), free_rank=1)


def test_group_order():
    assert FinAbGroup((2, 6), 0).order() == 12
    assert FinAbGroup((), 0).order() == 1
    assert FinAbGroup((4,), 1).order() is None


def test_element_order_examples():
    forty = IntMatrix.from_rows([[40]])
    assert element_order_in_coker(forty, [1]) == 40
    assert element_order_in_coker(forty, [8]) == 5
    assert element_order_in_coker(forty, [0]) == 1
    assert element_order_in_coker(
        IntMatrix.from_rows([[2, 0], [0, 3]]), [1, 1]) == 6
    # free direction: no multiple of (0,1) lands in the span of (2,0)
    assert element_order_in_coker(
        IntMatrix.from_rows([[2], [0]]), [0, 1]) is None
    with pytest.raises(DimensionMismatch):
        element_order_in_coker(forty, [1, 2])


@settings(max_examples=100)
@given(_matrix_strategy, st.lists(st.integers(-10, 10), min_size=1, max_size=5))
def test_element_order_annihilates(rows, vec):
    a = IntMatrix.from_rows(rows)
    v = (vec * 5)[: a.rows]
    order = element_order_in_coker(a, v)
    if order is None:
        return
    assert order >= 1
    # order * v must be in the column span: solve via the Smith form
    s = smith_normal_form(a)
    w = s.u.apply([order * x for x in v])
    diag = s.d.diagonal()
    for i, wi in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            assert wi == 0
        else:
            assert wi % di == 0
