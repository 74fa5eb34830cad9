"""Unit tests for the printed backend's composition-sum coefficients and
for the powers of e^x - 1, the oracle that the series backend's top
coefficients are held against."""

import itertools
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, strategies as st

from spgauge.errors import OutOfRange
from spgauge.oracles import (exp_minus_one_powers, surjection_counts,
                             surjection_counts_by_rank)
from spgauge.phi import BACKENDS, phi_images
from spgauge.series import printed_top_coeffs


def test_backends_tuple():
    assert BACKENDS == ("series", "printed")


def _mul(a, b):
    """Plain truncated product, the reference for the stream."""
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(len(a))]


def test_coeff_bounds():
    # every power keeps the truncation: degrees 0..max_deg
    for power in islice(exp_minus_one_powers(3), 5):
        assert len(power) == 4
    assert [len(p) for p in islice(exp_minus_one_powers(0), 3)] == [1, 1, 1]


def test_mul_truncates():
    # (e^x - 1)^2 = x^2 + x^3 + ..., truncated at degree 2 keeps only x^2
    # and at degree 1 drops it
    assert list(islice(exp_minus_one_powers(2), 2)) == [
        [0, 1, Fraction(1, 2)], [0, 0, 1]]
    assert list(islice(exp_minus_one_powers(1), 3)) == [[0, 1], [0, 0], [0, 0]]


@given(st.integers(1, 5), st.integers(0, 8))
def test_pow_matches_repeated_mul(k, deg):
    powers = exp_minus_one_powers(deg)
    base = expected = next(powers)
    for power in islice(powers, k):
        expected = _mul(expected, base)
        assert power == expected


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
    with pytest.raises(OutOfRange, match="^max_deg must be nonnegative$"):
        exp_minus_one_powers(-1)
    for bad in (2.0, Fraction(2), "2", None, True):
        with pytest.raises(OutOfRange, match="^max_deg must be an integer"):
            exp_minus_one_powers(bad)


@pytest.mark.parametrize("call, message", [
    # exact-arithmetic oracles: a float would come back as float counts
    (lambda: surjection_counts(3.0, 2), "m must be an integer, got 3.0"),
    (lambda: surjection_counts(3, 2.0), "top must be an integer, got 2.0"),
    (lambda: surjection_counts(True, 1), "m must be an integer, got True"),
    (lambda: surjection_counts_by_rank(2.5),
     "max_n must be an integer, got 2.5"),
    (lambda: surjection_counts_by_rank(True),
     "max_n must be an integer, got True"),
], ids=["m-float", "top-float", "m-bool", "by-rank-float", "by-rank-bool"])
def test_the_oracles_refuse_a_non_int_at_the_call(call, message):
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        call()
