"""The rank contract at every public entry point that takes a rank.

For every integer rank n below 1 the call raises SpgaugeError; for any
other rank it returns or raises SpgaugeError, never anything else.
"""

import pytest
from hypothesis import given, settings, strategies as st

from spgauge.errors import SpgaugeError
from spgauge.gauge import (
    Bundle,
    LieFamily,
    decide_local,
    decide_spin,
    pi_4n1_order,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from spgauge.phi import identity_samelson_p_part, phi_image, samelson_order

_NONPOSITIVE = st.integers(max_value=0)
_ANY_RANK = st.one_of(_NONPOSITIVE, st.integers(min_value=1))
# the image pipeline does work polynomial in n, so its positive ranks stay small
_SMALL_RANK = st.one_of(_NONPOSITIVE, st.integers(1, 12))
_CLASSICAL = [LieFamily.SU, LieFamily.SP, LieFamily.SPIN_ODD]


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
    "samelson_order": (lambda n, k, l, p: samelson_order(n), _SMALL_RANK),
    "decide_local": (decide_local, _ANY_RANK),
    "decide_spin": (decide_spin, _ANY_RANK),
    **{
        f"retractible_{family.value}": (
            lambda n, k, l, p, family=family: retractible(family, n, p),
            _ANY_RANK)
        for family in _CLASSICAL
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
