"""The input contract at every public entry point that takes a rank, a
count or a prime.

For every integer rank n below 1 the call raises SpgaugeError; for any
other rank it returns or raises SpgaugeError, never anything else.  The
same holds for the counts of surjections and sweeps below their least
valid value, and for every p that is not prime.  A verdict that claims
EQUIVALENT or DISTINCT has passed all of its guards.
"""

from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from spgauge.arith import p_part, surjection_counts, surjections
from spgauge.errors import SpgaugeError
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
    # surj(m, k) needs m >= 1 and k >= 1; the row surj(m, 0..k) takes k >= 0
    for fn, valid in ((surjections, m >= 1 and k >= 1),
                      (surjection_counts, m >= 1 and k >= 0)):
        if valid:
            fn(m, k)
        else:
            with pytest.raises(SpgaugeError):
                fn(m, k)


@settings(max_examples=50, deadline=None)
@given(max_n=st.integers(max_value=1))
def test_verify_sweep_below_two_raises_spgauge_error(max_n):
    with pytest.raises(SpgaugeError):
        verify_sweep(max_n)


# -- primes -------------------------------------------------------------------


def _is_prime(p):
    # the strategy's own trial division, apart from arith.is_prime
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _next_prime(p):
    while not _is_prime(p):
        p += 1
    return p


_PRIME_ARG = st.one_of(
    st.integers(max_value=1),  # negatives, 0 and 1
    st.builds(mul, st.integers(2, 1000), st.integers(2, 1000)),  # composites
    st.integers(2, 999_983).map(_next_prime),  # primes up to 10^6
    st.integers(2, 10**6),
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
@settings(max_examples=150, deadline=None)
@given(n=st.integers(-3, 200), k=st.integers(), l=st.integers(), p=_PRIME_ARG)
def test_every_p_returns_or_raises_spgauge_error(name, n, k, l, p):
    """p is drawn from the negatives, 0, 1, composites and primes up to
    10^6.  Huge p is left out: primality is trial division, whose time has
    no bound in p, and bounding it is ROADMAP item 3 (Miller-Rabin)."""
    fn = PRIME_ENTRY_POINTS[name]
    if not _is_prime(p):
        with pytest.raises(SpgaugeError):
            fn(n, k, l, p)
        return
    try:
        result = fn(n, k, l, p)
    except SpgaugeError:
        return
    if isinstance(result, Verdict) and result.outcome is not Outcome.NOT_DETERMINED:
        assert result.guards_passed()
