"""The input contract at every public entry point that takes a rank, a
count or a prime.

For every integer rank n below 1 the call raises SpgaugeError; for any
other rank it returns or raises SpgaugeError, never anything else.  The
same holds for the counts of surjections and sweeps below their least
valid value, and for every p that is not prime or is too large for the
primality test to decide.  A verdict that claims EQUIVALENT or DISTINCT has
passed all of its guards.  A matrix or vector entry that is not an int
raises OutOfRange, never a rounded answer.
"""

from itertools import combinations_with_replacement
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from spgauge.arith import PRIME_BOUND, p_part, surjection_counts
from spgauge.errors import OutOfRange, SpgaugeError
from spgauge.gauge import (
    Bundle,
    LieFamily,
    Outcome,
    Verdict,
    decide_local,
    decide_spin,
    pi_4n1_order,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from spgauge.lattice import IntMatrix, element_order_in_coker
from spgauge.phi import identity_samelson_p_part, phi_image, phi_images, samelson_order
from spgauge.verify import verify_sweep

_NONPOSITIVE = st.integers(max_value=0)
_ANY_RANK = st.one_of(_NONPOSITIVE, st.integers(min_value=1))
# the image pipeline does work polynomial in n, so its positive ranks stay small
_SMALL_RANK = st.one_of(_NONPOSITIVE, st.integers(1, 12))


def _invariants(n, k, l, p):
    bundle = Bundle(n, k)
    return sutherland_invariant(bundle), refined_invariant(bundle)


ENTRY_POINTS = {
    "invariants": (_invariants, _ANY_RANK),
    "pi_4n1_order": (lambda n, k, l, p: pi_4n1_order(n, k, p), _ANY_RANK),
    "identity_samelson_p_part": (
        lambda n, k, l, p: identity_samelson_p_part(n, p), _ANY_RANK),
    "phi_image_series": (lambda n, k, l, p: phi_image(n, "series"), _SMALL_RANK),
    "phi_image_printed": (lambda n, k, l, p: phi_image(n, "printed"), _SMALL_RANK),
    "phi_images": (lambda n, k, l, p: list(phi_images(n)), _SMALL_RANK),
    "samelson_order": (lambda n, k, l, p: samelson_order(n), _SMALL_RANK),
    "decide_local": (decide_local, _ANY_RANK),
    "decide_spin": (decide_spin, _ANY_RANK),
    **{
        f"retractible_{family.value}": (
            lambda n, k, l, p, family=family: retractible(family, n, p),
            _ANY_RANK)
        for family in LieFamily
    },
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(), l=st.integers(), p=st.integers(-20, 60))
def test_rank_below_one_always_raises_spgauge_error(name, data, k, l, p):
    fn, ranks = ENTRY_POINTS[name]
    n = data.draw(ranks, label="n")
    if n < 1:
        with pytest.raises(SpgaugeError):
            fn(n, k, l, p)
    else:
        try:
            fn(n, k, l, p)
        except SpgaugeError:
            pass


@settings(max_examples=150, deadline=None)
@given(m=st.integers(max_value=40), k=st.integers(max_value=40))
def test_surjection_counts_below_their_domain_raise_spgauge_error(m, k):
    # the row surj(m, 0..k) needs m >= 1 and k >= 0
    if m >= 1 and k >= 0:
        surjection_counts(m, k)
    else:
        with pytest.raises(SpgaugeError):
            surjection_counts(m, k)


@settings(max_examples=50, deadline=None)
@given(max_n=st.integers(max_value=1))
def test_verify_sweep_below_two_raises_spgauge_error(max_n):
    with pytest.raises(SpgaugeError):
        verify_sweep(max_n)


# -- matrix entries -----------------------------------------------------------


_NON_INT = st.one_of(st.floats(), st.fractions(), st.text(), st.none())

# each takes (rows, cols, matrix entries row-major, vector of length rows)
NON_INT_ENTRY_POINTS = {
    "from_rows": lambda rows, cols, matrix, vector: IntMatrix.from_rows(
        [matrix[i * cols:(i + 1) * cols] for i in range(rows)]),
    "IntMatrix": lambda rows, cols, matrix, vector: IntMatrix(
        rows, cols, tuple(matrix)),
    "element_order_in_coker": lambda rows, cols, matrix, vector:
        element_order_in_coker(IntMatrix(rows, cols, tuple(matrix)), vector),
}


@pytest.mark.parametrize("name", sorted(NON_INT_ENTRY_POINTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
       bad=_NON_INT)
def test_a_non_int_entry_raises_out_of_range(name, data, rows, cols, bad):
    """One entry of a valid matrix (or, for element_order_in_coker, of a
    valid vector) is replaced by a float, a Fraction, a str or None."""
    matrix = data.draw(st.lists(st.integers(-50, 50), min_size=rows * cols,
                                max_size=rows * cols), label="matrix")
    vector = data.draw(st.lists(st.integers(-50, 50), min_size=rows,
                                max_size=rows), label="vector")
    spoiled = vector if name == "element_order_in_coker" else matrix
    spoiled[data.draw(st.integers(0, len(spoiled) - 1), label="position")] = bad
    with pytest.raises(OutOfRange):
        NON_INT_ENTRY_POINTS[name](rows, cols, matrix, vector)


# -- primes -------------------------------------------------------------------


def _is_prime(p):
    # the strategy's own trial division, apart from arith.is_prime
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _next_prime(p):
    while not _is_prime(p):
        p += 1
    return p


# Primes too large for _is_prime, fixed so that no computer algebra system is
# needed: 10^12 - 11, 10^18 + 9, 2^61 - 1, 10^24 + 7 and the largest prime
# below PRIME_BOUND.
_LARGE_PRIMES = (
    999_999_999_989,
    10**18 + 9,
    2**61 - 1,
    10**24 + 7,
    3_317_044_064_679_887_385_961_813,
)

# Each strategy draws (p, kind): kind is "prime" or "not prime" where the
# construction fixes it, and None where _is_prime must decide.
_PRIME_ARG = st.one_of(
    st.tuples(st.integers(max_value=1), st.just("not prime")),  # negatives, 0, 1
    st.tuples(st.builds(mul, st.integers(2, 1000), st.integers(2, 1000)),
              st.just("not prime")),  # composites
    st.tuples(st.integers(2, 999_983).map(_next_prime),
              st.just("prime")),  # primes up to 10^6
    st.tuples(st.integers(2, 10**6), st.none()),
    st.tuples(st.sampled_from(_LARGE_PRIMES), st.just("prime")),
    # a product of two large primes is composite, or at or above the bound
    st.tuples(st.sampled_from([a * b for a, b in combinations_with_replacement(
        _LARGE_PRIMES, 2)]), st.just("not prime")),
    st.tuples(st.one_of(st.integers(min_value=PRIME_BOUND),
                        st.sampled_from([PRIME_BOUND, 2**89 - 1, 10**30])),
              st.just("not prime")),  # primality refused
)

PRIME_ENTRY_POINTS = {
    "decide_local": decide_local,
    "decide_spin": decide_spin,
    "pi_4n1_order": lambda n, k, l, p: pi_4n1_order(n, k, p),
    "identity_samelson_p_part": lambda n, k, l, p: identity_samelson_p_part(n, p),
    "p_part": lambda n, k, l, p: p_part(k, p),
    **{
        f"retractible_{family.value}":
            lambda n, k, l, p, family=family: retractible(family, n, p)
        for family in LieFamily
    },
}


@pytest.mark.parametrize("name", sorted(PRIME_ENTRY_POINTS))
@settings(max_examples=150, deadline=500)
@given(n=st.integers(-3, 200), k=st.integers(), l=st.integers(), arg=_PRIME_ARG)
def test_every_p_returns_or_raises_spgauge_error(name, n, k, l, arg):
    """p is drawn from the negatives, 0, 1, composites, primes up to 10^6,
    fixed primes up to 3.3e24 and their products, and integers at or above
    PRIME_BOUND; every call finishes within the deadline."""
    fn = PRIME_ENTRY_POINTS[name]
    p, kind = arg
    if kind is None:
        kind = "prime" if _is_prime(p) else "not prime"
    if kind == "not prime":
        with pytest.raises(SpgaugeError):
            fn(n, k, l, p)
        return
    try:
        result = fn(n, k, l, p)
    except SpgaugeError:
        return
    if isinstance(result, Verdict) and result.outcome is not Outcome.NOT_DETERMINED:
        assert result.guards_passed()
