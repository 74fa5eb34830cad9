"""The benchmark's own arithmetic, held against brute force."""

import itertools
from fractions import Fraction
from math import factorial, gcd

import oracle
import primes


def _surjections_by_enumeration(m, k):
    return sum(1 for f in itertools.product(range(k), repeat=m) if len(set(f)) == k)


def test_stirling_matches_enumerated_surjections():
    for m in range(1, 8):
        row = oracle.stirling_row(m)
        assert len(row) == m + 1 and row[0] == 0
        for k in range(1, m + 1):
            assert factorial(k) * row[k] == _surjections_by_enumeration(m, k)


def test_generators_at_rank_three():
    assert [g for _, _, g in oracle.phi_gens(3, "series")] == [84, 1260, 6300]
    assert [str(t) for _, t, _ in oracle.phi_gens(3, "series")] == ["1/60", "1/4", "5/4"]
    # the composition-sum value at (n, k) = (3, 2) scales to 150
    assert oracle.phi_gens(3, "printed")[1][2] == 150
    assert oracle.printed_top(2, 2) == Fraction(1)


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(primes.is_prime(n) == trial(n) for n in range(-5, 5000))
    # strong pseudoprimes to the first few bases
    for n in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not primes.is_prime(n)
    assert primes.next_prime(10 ** 12) == 1000000000039


def test_local_values_and_invariants():
    assert oracle.local_value(2, 0, 5) == 5      # gcd(0, 40) = 40
    assert oracle.local_value(2, 8, 2) == 8
    assert oracle.local_value(2, -15, 5) == 5
    row = oracle.invariant(4, 1)
    assert row["q2_order"] == "840" and row["q2_gcd_form"] == "1"
    assert row["q2_matches_gcd_form"] == "false"
    assert oracle.invariant(2, 12)["q2_order"] == str(gcd(12, 40))
    assert oracle.classify_spin(3, 1, 2, 2)["outcome"] == "not-determined"
