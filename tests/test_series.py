"""Unit tests for truncated series and the top-coefficient backends."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from spgauge.arith import surjections
from spgauge.errors import OutOfRange
from spgauge.series import (
    BACKENDS,
    TruncatedSeries,
    exp_minus_one,
    exp_minus_one_pow,
    top_coeff,
)


def test_backends_tuple():
    assert BACKENDS == ("series", "printed")


def _series(*coeffs) -> TruncatedSeries:
    return TruncatedSeries(len(coeffs) - 1, tuple(Fraction(c) for c in coeffs))


def test_coeff_bounds():
    s = _series(0, 0, 0, 0)
    assert s.coeff(3) == 0
    with pytest.raises(OutOfRange):
        s.coeff(4)
    with pytest.raises(OutOfRange):
        s.coeff(-1)


def test_mul_truncates():
    # (1 + x)(1 - x) = 1 - x^2, truncated at degree 1 drops the x^2 term
    a = _series(1, 1)
    b = _series(1, -1)
    assert (a * b).coeffs == (1, 0)


def test_mismatched_truncation_rejected():
    a = _series(0, 0, 0)
    b = _series(0, 0, 0, 0)
    with pytest.raises(OutOfRange):
        a * b


@given(st.integers(1, 5), st.integers(0, 8))
def test_pow_matches_repeated_mul(k, deg):
    coeffs = [Fraction(i + 1, 3) for i in range(deg + 1)]
    s = _series(*coeffs)
    expected = s
    for _ in range(k - 1):
        expected = expected * s
    assert s.pow(k) == expected


def test_exp_minus_one_coeffs():
    s = exp_minus_one(5)
    assert s.coeff(0) == 0
    for m in range(1, 6):
        assert s.coeff(m) == Fraction(1, factorial(m))


def test_exp_minus_one_pow_gives_surjection_counts():
    for k in range(1, 7):
        s = exp_minus_one_pow(k, 10)
        for m in range(k, 11):
            assert factorial(m) * s.coeff(m) == surjections(m, k)


def test_top_coeff_series_frozen_rank3():
    assert top_coeff(3, 1) == Fraction(1, 120)
    assert top_coeff(3, 2) == Fraction(1, 4)
    assert top_coeff(3, 3) == Fraction(5, 4)


def test_top_coeff_series_equals_surjection_formula():
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = 2 * n - 1
            assert top_coeff(n, k) == Fraction(surjections(m, k), factorial(m))


def test_top_coeff_printed_collapses_at_k1():
    # one-part compositions: only r = 2n-1 contributes
    for n in range(1, 7):
        assert top_coeff(n, 1, "printed") == Fraction(1, factorial(4 * n - 3))


def test_top_coeff_printed_frozen_rank3():
    assert top_coeff(3, 2, "printed") == Fraction(5, 168)


def _printed_by_composition_enumeration(n: int, k: int) -> Fraction:
    """Direct sum over compositions r_1 + .. + r_k = 2n-1 with r_i >= 1."""
    m = 2 * n - 1
    total = Fraction(0)
    for parts in itertools.product(range(1, m + 1), repeat=k):
        if sum(parts) != m:
            continue
        term = Fraction(factorial(m))
        for r in parts:
            term /= factorial(r) * factorial(2 * r - 1)
        total += term
    return total


def test_top_coeff_printed_matches_composition_sum():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert top_coeff(n, k, "printed") == \
                _printed_by_composition_enumeration(n, k)


def test_backends_disagree_for_higher_powers():
    assert top_coeff(3, 2, "series") != top_coeff(3, 2, "printed")
    # the rank-1 anchor is the one place the two formulas coincide
    assert top_coeff(1, 1, "series") == top_coeff(1, 1, "printed") == 1


def test_top_coeff_domain_errors():
    with pytest.raises(OutOfRange):
        top_coeff(3, 4)
    with pytest.raises(OutOfRange):
        top_coeff(3, 0)
    with pytest.raises(OutOfRange):
        top_coeff(0, 1)
    with pytest.raises(OutOfRange):
        top_coeff(3, 2, "exact")
