"""Unit tests for the streamed truncated powers and their two users."""

import itertools
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, strategies as st

from spgauge.arith import surjection_counts
from spgauge.errors import OutOfRange
from spgauge.phi import BACKENDS, phi_images
from spgauge.series import exp_minus_one_powers, printed_top_coeffs, truncated_powers


def test_backends_tuple():
    assert BACKENDS == ("series", "printed")


def _fracs(*coeffs) -> list[Fraction]:
    return [Fraction(c) for c in coeffs]


def _mul(a, b):
    """Plain truncated product, the reference for the stream."""
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(len(a))]


def test_coeff_bounds():
    # every power keeps the base's truncation: degrees 0..len(base) - 1
    for power in islice(truncated_powers(_fracs(0, 1, 1, 1)), 5):
        assert len(power) == 4
    assert [len(p) for p in islice(exp_minus_one_powers(0), 3)] == [1, 1, 1]


def test_mul_truncates():
    # (1 + x)^2 = 1 + 2x + x^2, truncated at degree 1 drops the x^2 term
    first, second = islice(truncated_powers(_fracs(1, 1)), 2)
    assert first == [1, 1]
    assert second == [1, 2]


@given(st.integers(1, 5), st.integers(0, 8))
def test_pow_matches_repeated_mul(k, deg):
    base = [Fraction(i + 1, 3) for i in range(deg + 1)]
    expected = base
    for power in islice(truncated_powers(base), k):
        assert power == expected
        expected = _mul(expected, base)


def test_exp_minus_one_coeffs():
    first = next(exp_minus_one_powers(5))
    assert first[0] == 0
    for m in range(1, 6):
        assert first[m] == Fraction(1, factorial(m))


def test_exp_minus_one_pow_gives_surjection_counts():
    powers = exp_minus_one_powers(10)
    for k, power in zip(range(1, 7), powers):
        for m in range(k, 11):
            assert factorial(m) * power[m] == surjection_counts(m, k)[k]


def _series_top(n: int, k: int) -> Fraction:
    """The x^(2n-1) coefficient of (e^x - 1)^k."""
    m = 2 * n - 1
    return next(islice(exp_minus_one_powers(m), k - 1, None))[m]


def test_top_coeff_series_frozen_rank3():
    assert _series_top(3, 1) == Fraction(1, 120)
    assert _series_top(3, 2) == Fraction(1, 4)
    assert _series_top(3, 3) == Fraction(5, 4)


def test_top_coeff_series_equals_surjection_formula():
    # the engine's generators are (2n+1)! times the series top coefficients
    for n, res in enumerate(phi_images(8), 1):
        scale = factorial(2 * n + 1)
        for k in range(2, n + 1):
            assert res.upper_gens[k - 1] == scale * _series_top(n, k)


def test_top_coeff_printed_collapses_at_k1():
    # one-part compositions: only r = 2n-1 contributes
    for n in range(1, 7):
        assert next(printed_top_coeffs(n)) == Fraction(1, factorial(4 * n - 3))


def test_top_coeff_printed_frozen_rank3():
    assert list(printed_top_coeffs(3))[1] == Fraction(5, 168)


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
        coeffs = list(printed_top_coeffs(n))
        assert len(coeffs) == n
        for k, coeff in enumerate(coeffs, 1):
            assert coeff == _printed_by_composition_enumeration(n, k)


def test_backends_disagree_for_higher_powers():
    assert _series_top(3, 2) != list(printed_top_coeffs(3))[1]
    # the rank-1 anchor is the one place the two formulas coincide
    assert _series_top(1, 1) == next(printed_top_coeffs(1)) == 1


def test_top_coeff_domain_errors():
    # both raise at the call, before any coefficient is read
    for n in (0, -1, -8):
        with pytest.raises(OutOfRange):
            printed_top_coeffs(n)
    with pytest.raises(OutOfRange):
        exp_minus_one_powers(-1)
