"""Unit tests for the exact integer primitives."""

from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from spgauge.arith import (
    PRIME_BOUND,
    is_prime,
    require_prime,
    require_rank,
    valuation,
)
from spgauge.errors import OutOfRange
from spgauge.oracles import (gcd_p_part, surjection_counts,
                             surjection_counts_by_rank)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for x in range(50):
        assert is_prime(x) == (x in primes)
    assert not is_prime(-7)
    assert not is_prime(1)


# Fixed constants, so that these tests need no computer algebra system.
# Least strong pseudoprimes to the first j prime bases, j = 1..9 (OEIS A014233).
STRONG_PSEUDOPRIMES = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)
CARMICHAEL = (561, 1105, 1729)
# 10^18 + 9, the Mersenne prime 2^61 - 1, 10^24 + 7 and the largest prime
# below PRIME_BOUND
LARGE_PRIMES = (
    10**18 + 9,
    2**61 - 1,
    10**24 + 7,
    3_317_044_064_679_887_385_961_813,
)


def _sieve(limit):
    # primality of every integer below limit by its own sieve, apart from
    # arith.is_prime
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for d in range(2, int(limit ** 0.5) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, limit, d)))
    return flags


def test_is_prime_agrees_with_a_sieve_below_a_million():
    flags = _sieve(10**6)
    for p in range(-20, 10**6):
        assert is_prime(p) == (p >= 0 and flags[p] == 1), p


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    for p in STRONG_PSEUDOPRIMES + CARMICHAEL:
        assert not is_prime(p), p


def test_is_prime_accepts_large_primes():
    for p in LARGE_PRIMES:
        assert is_prime(p), p


def test_is_prime_refuses_p_at_or_above_the_bound():
    # PRIME_BOUND itself is composite and a strong pseudoprime to all 13
    # bases, so the test would call it prime: the bound must be strict
    assert PRIME_BOUND == 3_317_044_064_679_887_385_961_981
    for p in (PRIME_BOUND, PRIME_BOUND + 1, 2**89 - 1, 10**30):
        with pytest.raises(OutOfRange, match=f"below {PRIME_BOUND}, got {p}$"):
            is_prime(p)
        with pytest.raises(OutOfRange):
            require_prime(p)


def test_require_prime_and_require_rank():
    for p in (2, 3, 97, *LARGE_PRIMES):
        require_prime(p)
    for p in (-7, 0, 1, 4, 91, 3_215_031_751, PRIME_BOUND - 1):
        with pytest.raises(OutOfRange, match=f"^{p} is not prime$"):
            require_prime(p)
    require_rank(1)
    for n in (0, -3):
        with pytest.raises(OutOfRange, match=f"got {n}$"):
            require_rank(n)


def test_p_exponent_values():
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    assert valuation(40, 3) == 0
    assert valuation(-24, 2) == 3


def test_p_part_is_the_power_not_the_exponent():
    # nu_p(a) here means the p-power itself
    assert gcd_p_part(40, 2) == 8
    assert gcd_p_part(40, 5) == 5
    assert gcd_p_part(40, 3) == 1


@given(st.integers(1, 10**9), st.sampled_from([2, 3, 5, 7, 11]))
def test_p_part_divides_exactly(a, p):
    part = gcd_p_part(a, p)
    assert a % part == 0
    assert (a // part) % p != 0


def test_surjections_frozen_values():
    assert surjection_counts(1, 1)[1] == 1
    assert surjection_counts(3, 2)[2] == 6
    assert surjection_counts(5, 3)[2:] == [30, 150]
    assert surjection_counts(4, 4)[4] == factorial(4)
    assert surjection_counts(3, 5)[5] == 0  # k > m


def test_surjections_rejects_nonpositive():
    with pytest.raises(OutOfRange):
        surjection_counts(0, 1)
    with pytest.raises(OutOfRange):
        surjection_counts(-2, 0)


@given(st.integers(1, 40), st.integers(2, 40))
def test_surjections_even_for_k_at_least_two(m, k):
    # swapping two target points is a fixed-point-free involution
    assert all(count % 2 == 0 for count in surjection_counts(m, k)[2:])


@given(st.integers(1, 9))
def test_surjections_row_sum_counts_all_maps(m):
    """Partitioning all maps [m] -> [m] by image size recovers m^m."""
    row = surjection_counts(m, m)
    assert sum(comb(m, k) * row[k] for k in range(1, m + 1)) == m**m


def _surjections_by_binomial_sum(m, k):
    # the per-k inclusion-exclusion sum the row replaced, kept as its oracle
    total = 0
    for j in range(k + 1):
        term = comb(k, j) * (k - j) ** m
        total += -term if j & 1 else term
    return total


def test_surjection_counts_match_the_binomial_sum():
    for m in range(1, 61):
        row = surjection_counts(m, m + 2)
        assert len(row) == m + 3
        assert row[0] == 0
        for k in range(1, m + 3):
            assert row[k] == _surjections_by_binomial_sum(m, k), (m, k)
        assert row[m + 1] == row[m + 2] == 0  # k > m


@pytest.mark.parametrize("n", [200, 500, 1000])
def test_surjection_counts_spot_pairs_at_large_rank(n):
    m = 2 * n - 1
    row = surjection_counts(m, n)
    assert len(row) == n + 1
    for k in (2, 3, n // 2, n):
        assert row[k] == _surjections_by_binomial_sum(m, k), k


def test_surjection_counts_short_rows_and_rejections():
    assert surjection_counts(1, 0) == [0]
    assert surjection_counts(3, 5) == [0, 1, 6, 6, 0, 0]
    with pytest.raises(OutOfRange):
        surjection_counts(0, 3)
    with pytest.raises(OutOfRange):
        surjection_counts(3, -1)


def test_surjection_counts_by_rank_is_one_row_per_rank():
    assert list(surjection_counts_by_rank(80)) == [
        surjection_counts(2 * n - 1, n) for n in range(1, 81)]


def test_surjection_counts_by_rank_at_rank_200():
    *_, last = surjection_counts_by_rank(200)
    assert last == surjection_counts(399, 200)
