"""Acceptance suite: every top-level claim at its full scale, exact arithmetic.

Each test prints one PASS/FAIL line naming the property and scale, then
asserts.  The whole module is expected to finish in well under five minutes;
individual budgets are noted per test.
"""

from math import factorial

import pytest

from spgauge.gauge import LieFamily, retractible
from spgauge.oracles import surjection_counts
from spgauge.phi import phi_image
from spgauge.verify import (
    _divisibility_row,
    check_guards,
    check_image_stream,
    check_mapping_group,
    check_printed_discrepancy,
    check_rank2_constants,
    check_separation,
    check_series_identity,
)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _report(name: str, result, detail: str) -> None:
    _line(name, result.ok, detail if result.ok else "; ".join(result.failures[:5]))
    assert result.ok, result.failures[:5]


@pytest.fixture(scope="module")
def stream_200():
    """The orders and divisibility checks from one walk of the image stream
    up to rank 200, shared by the two n <= 200 tests."""
    return check_image_stream(200)


def test_orders_at_full_scale(stream_200):
    """Pinned order is 4n(2n+1) for every rank up to 200 (budget: 1 minute)."""
    result = stream_200[0]
    anchors = {r["n"]: r["samelson_order"] for r in result.rows}
    ok = result.ok and anchors[1] == 12 and anchors[2] == 40
    _line("order-pipeline n<=200", ok,
          "200 ranks, anchors 12 and 40" if ok else str(result.failures[:5]))
    assert ok, result.failures[:5]


def test_divisibility_at_full_scale(stream_200):
    """Scaled coefficients divisible by 4n(2n+1), surjection counts even,
    for 2 <= k <= n <= 200 (budget: 1 minute)."""
    result = stream_200[1]
    _report("coefficient-divisibility n<=200", result,
            f"{result.rows[0]['pairs']} (n,k) pairs")


def test_divisibility_at_rank_1000():
    """Every generator of the rank-1000 image (the last item of phi_images)
    against the oracle, with the anchor divisibility and parity checks
    (budget: seconds)."""
    failures = _divisibility_row(phi_image(1000), surjection_counts(1999, 1000))
    _line("coefficient-divisibility n=1000", not failures,
          "999 (n,k) pairs" if not failures else "; ".join(failures[:5]))
    assert not failures, failures[:5]


def test_printed_formula_discrepancy():
    """The composition-sum backend yields 150 at (3,2), not divisible by 84,
    and leaves the rank-3 image unpinned (budget: milliseconds)."""
    result = check_printed_discrepancy()
    _report("printed-backend divergence at (3,2)", result,
            "150 vs modulus 84, image unpinned, series pins 84")
    # the convention decision, restated directly
    printed = phi_image(3, "printed")
    assert printed.upper_gens[1] == 150
    assert printed.upper_gens[1] % 84 != 0
    assert printed.pinned_order is None
    assert phi_image(3, "series").pinned_order == 84


def test_mapping_group_orders_even_ranks():
    """Table-driven mapping group order is (2n+1)!/3 for even n <= 40,
    anchored at 40 for n = 2 (budget: seconds)."""
    result = check_mapping_group(40)
    anchor = result.rows[0]["order"] == 40
    top = result.rows[-1]["order"] == factorial(81) // 3
    ok = result.ok and anchor and top
    _line("mapping-group order even n<=40", ok,
          "20 even ranks, (2n+1)!/3 throughout")
    assert ok, result.failures[:5]


def test_separation_property():
    """The rank-2 pipeline equals c(n)B, c(n)gcd(k, B) and B/gcd(k, B), so
    the quotient invariant separates bundles exactly like gcd(k, B): every
    k in [0, B] for even n <= 12, k = 1 and a seeded k for even n <= 200
    (budget: seconds)."""
    result = check_separation(200)
    assert [row["n"] for row in result.rows] == list(range(2, 13, 2))
    _report("separation even n<=200", result,
            "the rank-2 identity on every full period to n=12, sampled to 200")


def test_rank2_classification_constants():
    """q2 invariant is gcd(k, 40) on [0, 80]; the 5-local verdicts partition
    [0, 40] by 5-part 1 vs 5 (budget: seconds)."""
    result = check_rank2_constants()
    _report("rank-2 constants", result,
            "gcd(k,40) on 0..80; 5-local partition into {1, 5}")


def test_series_combinatorics_oracle():
    """m! [x^m](e^x-1)^k equals the surjection count for m <= 12, validated
    by exhaustive enumeration for m <= 7 (budget: seconds)."""
    result = check_series_identity()
    _report("series-vs-surjections", result,
            "coefficients m<=12; exhaustive maps m<=7")


def test_guard_behavior():
    """Guarded operations refuse exactly when (p-1)^2+1 < 2n over n <= 20 and
    six primes; the retractibility registry matches its thresholds
    (budget: seconds)."""
    result = check_guards(20)
    _report("guards n<=20, p in {2,3,5,7,11,13}", result,
            "refusals exactly on guard failure; registry thresholds hold")
    # registry spot anchors
    assert retractible(LieFamily.SP, 2, 3) is True
    assert retractible(LieFamily.SP, 3, 3) is False
    assert retractible(LieFamily.E8, None, 7) is True


def test_internal_consistency_spot_checks():
    """A couple of cross-module identities, stated directly."""
    from spgauge.gauge import mapping_group_order, q2_mapping_invariant

    ok = True
    for n in range(2, 41, 2):
        if q2_mapping_invariant(n, 0) != mapping_group_order(n):
            ok = False
    for n in (1, 2, 3, 4):
        if phi_image(n).pinned_order != 4 * n * (2 * n + 1):
            ok = False
    _line("cross-module consistency", ok, "k=0 quotient equals mapping order")
    assert ok
