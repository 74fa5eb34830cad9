"""Unit tests for the closed-form and counting oracles that verify holds the
engine to: each is checked against its defining formula or a brute-force
count, not against the engine."""

from collections import Counter
from math import comb, factorial, isqrt

import pytest

from spgauge.oracles import (divisors, gcd_p_part, image_size_tally,
                             rank2_factor, samelson_b, surjection_counts)


@pytest.mark.parametrize("n, b", [
    (1, 12), (2, 40), (3, 84), (4, 144), (10, 840), (100, 80400),
])
def test_samelson_b_values(n, b):
    assert samelson_b(n) == b


@pytest.mark.parametrize("n, c", [(2, 1), (3, 20), (4, 840), (5, 60480)])
def test_rank2_factor_values(n, c):
    assert rank2_factor(n) == c


@pytest.mark.parametrize("n", range(2, 9))
def test_rank2_factor_times_b_is_a_third_of_the_factorial(n):
    # (2n+1)!/3 = c(n)B with c(n) = (2n-1)!/6, exactly: no remainder is
    # dropped by either floor division
    assert factorial(2 * n - 1) % 6 == 0
    assert factorial(2 * n + 1) % 3 == 0
    assert rank2_factor(n) * samelson_b(n) == factorial(2 * n + 1) // 3


@pytest.mark.parametrize("a, p, part", [
    (1680, 2, 16), (1680, 3, 3), (1680, 5, 5), (1680, 7, 7), (1680, 11, 1),
    (1, 2, 1), (2**40, 2, 2**40), (2 * 5**30, 5, 5**30),
])
def test_gcd_p_part_values(a, p, part):
    # a power of p itself, and 1, are the edges of gcd(a, p^e) with p^e > a
    assert gcd_p_part(a, p) == part


def _divisors_by_trial(x):
    return [d for d in range(1, x + 1) if x % d == 0]


def test_divisors_match_trial_division():
    for x in range(1, 500):
        assert divisors(x) == _divisors_by_trial(x), x


@pytest.mark.parametrize("x, count", [
    # 40 = 2^3 5, 84 = 2^2 3 7, 1680 = 2^4 3 5 7: the product of (e + 1)
    (40, 8), (84, 12), (1680, 40), (2**20, 21), (9699690, 256),
])
def test_divisor_count_is_the_product_of_exponents_plus_one(x, count):
    assert len(divisors(x)) == count


@pytest.mark.parametrize("x", [1, 4, 36, 49, 10**6])
def test_a_square_lists_its_root_once(x):
    out = divisors(x)
    assert out.count(isqrt(x)) == 1
    assert out == sorted(set(out))
    assert out[0] == 1 and out[-1] == x


@pytest.mark.parametrize("m", range(1, 8))
def test_image_size_tally_is_the_binomial_times_the_surjection_count(m):
    # choose the k-point image, then a surjection onto it; every map once
    tally = image_size_tally(m)
    surj = surjection_counts(m, m)
    assert tally == Counter({k: comb(m, k) * surj[k]
                             for k in range(1, m + 1)})
    assert sum(tally.values()) == m ** m
