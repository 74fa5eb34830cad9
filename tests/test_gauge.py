"""Unit tests for bundle invariants and the p-local classification oracles."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from spgauge import arith, gauge, lattice
from spgauge.errors import OracleMismatch, OutOfRange
from spgauge.gauge import (
    GuardCheck,
    LieFamily,
    Outcome,
    Verdict,
    decide_local,
    decide_spin,
    identity_samelson_p_part,
    im_delta_gen,
    im_partial_order,
    local_partition,
    mapping_group_order,
    q2_mapping_invariant,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from spgauge.oracles import gcd_p_part
from spgauge.phi import samelson_order


def test_invariants_require_positive_rank():
    for fn in (sutherland_invariant, refined_invariant):
        for n in (0, -3):
            with pytest.raises(OutOfRange):
                fn(n, 1)
    assert sutherland_invariant(2, -7) == refined_invariant(2, -7) == 1


def test_sutherland_invariant_values():
    assert sutherland_invariant(2, 28) == 2  # gcd(28, 10)
    assert sutherland_invariant(1, 0) == 12
    assert sutherland_invariant(3, 7) == 7


def test_refined_invariant_values():
    assert refined_invariant(2, 28) == 4
    assert refined_invariant(1, 5) == 1
    for n in (1, 2, 3, 5):
        assert refined_invariant(n, 0) == 4 * n * (2 * n + 1)


def test_refined_at_least_as_fine_as_sutherland():
    # n(2n+1) divides 4n(2n+1), so the coarse gcd divides the refined one
    for n in range(1, 9):
        for k in range(-20, 21):
            coarse = sutherland_invariant(n, k)
            fine = refined_invariant(n, k)
            assert fine % coarse == 0
            if n % 2 == 1:
                assert fine == coarse


def test_mapping_group_order_values():
    assert mapping_group_order(2) == 40
    assert mapping_group_order(4) == 120960
    assert mapping_group_order(6) == factorial(13) // 3


def test_mapping_group_order_rejects_odd_rank():
    for n in (3, 0):
        with pytest.raises(OutOfRange, match=f"^rank-2 mapping pipeline "
                                             f"needs even n >= 2, got {n}$"):
            mapping_group_order(n)


def test_table_routes_equal_factorial_closed_forms():
    for n in range(2, 41, 2):
        assert mapping_group_order(n) == factorial(2 * n + 1) // 3
        assert im_delta_gen(n, 1) == factorial(2 * n - 1) // 6


def test_im_delta_gen_values():
    assert im_delta_gen(2, 1) == 1
    assert im_delta_gen(4, 1) == 840
    assert im_delta_gen(2, 5) == 5
    assert im_delta_gen(2, 0) == 0


@given(st.sampled_from([2, 4, 6, 8]), st.integers(-300, 300))
def test_im_delta_gen_linear_in_k(n, k):
    assert im_delta_gen(n, k) == abs(k) * im_delta_gen(n, 1)


def test_q2_mapping_invariant_values():
    assert q2_mapping_invariant(2, 12) == 4
    assert q2_mapping_invariant(2, 0) == 40
    assert q2_mapping_invariant(4, 1) == 840


def test_q2_report_divergence_from_advertised_form():
    # the invariant command's q2_gcd_form column is the refined invariant
    assert q2_mapping_invariant(2, 12) == refined_invariant(2, 12) == 4
    assert q2_mapping_invariant(4, 1) == 840
    assert refined_invariant(4, 1) == 1


def test_q2_equals_mapping_order_at_k0():
    for n in range(2, 41, 2):
        assert q2_mapping_invariant(n, 0) == mapping_group_order(n)


def test_im_partial_order_values():
    assert im_partial_order(2, 1) == 40
    assert im_partial_order(2, 40) == 1
    assert im_partial_order(4, 3) == 48
    assert im_partial_order(2, 0) == 1


def test_im_partial_report_divergence():
    # the invariant command's boundary_factorial_form column is
    # (2n+1)!/(3 refined)
    def factorial_form(n, k):
        return factorial(2 * n + 1) // (3 * refined_invariant(n, k))

    assert im_partial_order(2, 1) == factorial_form(2, 1) == 40
    assert im_partial_order(4, 3) == 48
    assert factorial_form(4, 3) == 40320


@given(st.sampled_from([2, 4, 6]), st.integers(-200, 200))
def test_im_partial_is_modulus_over_gcd(n, k):
    b = 4 * n * (2 * n + 1)
    assert im_partial_order(n, k) == b // gcd(k, b)


def test_decide_local_spec_triples():
    v = decide_local(2, 5, 10, 5)
    assert v.outcome is Outcome.EQUIVALENT
    assert v.invariant_values == (5, 5)
    assert v.guards_passed()

    v = decide_local(2, 1, 5, 5)
    assert v.outcome is Outcome.DISTINCT
    assert v.invariant_values == (1, 5)

    v = decide_local(3, 7, 14, 3)
    assert v.outcome is Outcome.NOT_DETERMINED
    assert not v.guards_passed()
    # the invariant data is still reported for inspection
    assert v.invariant_values == (1, 1)


_GUARD = st.builds(GuardCheck, st.sampled_from(["retractibility", "odd-prime"]),
                   st.booleans(), st.just(""))


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       st.lists(_GUARD, max_size=4).map(tuple))
def test_a_hand_built_verdict_claims_nothing_past_a_failed_guard(values,
                                                                  guards):
    verdict = Verdict(values, guards)
    if not all(g.passed for g in guards):
        assert verdict.outcome is Outcome.NOT_DETERMINED
    else:
        assert (verdict.outcome is Outcome.EQUIVALENT) == (values[0] == values[1])
        assert verdict.outcome is not Outcome.NOT_DETERMINED
    assert verdict.criterion == "p-parts of gcd(k, 4n(2n+1)) coincide"


@pytest.mark.parametrize("name, passed, detail", [
    ("x", "no", ""), ("x", 1, ""), ("x", None, ""), (1, True, ""),
    (None, True, ""), ("x", True, 2.0), ("x", False, None)])
def test_a_guard_refuses_what_is_not_a_name_a_bool_and_a_detail(
        name, passed, detail):
    with pytest.raises(OutOfRange):
        GuardCheck(name, passed, detail)


@pytest.mark.parametrize("values, guards", [
    ((1.0, 1), ()), ((5, Fraction(5)), ()), ((5, "5"), ()), ((5,), ()),
    ((5, 5, 5), ()), ([5, 5], ()), (None, ()),
    ((5, 5), [GuardCheck("x", True, "")]), ((5, 5), (True,)),
    ((5, 5), ("retractibility",)), ((5, 5), None)])
def test_a_verdict_refuses_what_is_not_a_pair_of_ints_and_guards(values,
                                                                 guards):
    with pytest.raises(OutOfRange):
        Verdict(values, guards)


def test_decide_local_rejects_composite_modulus():
    with pytest.raises(OutOfRange, match="^6 is not prime$"):
        decide_local(2, 1, 2, 6)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_decide_local_is_equivalence_relation(k, l, j):
    def eq(a, b):
        return decide_local(2, a, b, 5).outcome is Outcome.EQUIVALENT

    assert eq(k, k)
    assert eq(k, l) == eq(l, k)
    if eq(k, l) and eq(l, j):
        assert eq(k, j)


@given(st.integers(-100, 100), st.integers(-5, 5))
def test_decide_local_invariant_under_shift_and_negation(k, t):
    b = 40
    base = decide_local(2, k, 7, 5).outcome
    assert decide_local(2, k + b * t, 7, 5).outcome is base
    assert decide_local(2, -k, 7, 5).outcome is base


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def test_decide_spin_spec_triples():
    v = decide_spin(7, 84, 0, 7)
    assert v.outcome is Outcome.EQUIVALENT
    assert v.invariant_values == (7, 7)

    v = decide_spin(8, 1, 3, 3)
    assert v.outcome is Outcome.NOT_DETERMINED
    assert not v.guards_passed()

    # m=9 gives n=4, and (3-1)^2+1 = 5 < 8 fails retractibility, so no
    # claim is made even though the compared 3-parts happen to be equal
    v = decide_spin(9, 9, 18, 3)
    assert v.outcome is Outcome.NOT_DETERMINED
    assert v.invariant_values == (9, 9)
    failed = [g for g in v.guards if not g.passed]
    assert [g.name for g in failed] == ["retractibility"]


def test_decide_spin_guards():
    with pytest.raises(OutOfRange, match=r"^Spin\(6\) is outside the "
                                         r"criterion \(needs m >= 7\)$"):
        decide_spin(6, 1, 2, 5)
    with pytest.raises(OutOfRange, match="^9 is not prime$"):
        decide_spin(9, 1, 2, 9)
    # p = 2 is a guard failure, not an exception
    v = decide_spin(9, 1, 2, 2)
    assert v.outcome is Outcome.NOT_DETERMINED
    assert "odd-prime" in [g.name for g in v.guards if not g.passed]


def test_decide_spin_odd_and_even_dimension_share_criterion():
    # Spin(2n+1) and Spin(2n+2) reduce to the same rank-n criterion
    a = decide_spin(13, 10, 20, 11)  # n = 6
    b = decide_spin(14, 10, 20, 11)  # n = 6
    assert a.outcome is b.outcome
    assert a.invariant_values == b.invariant_values
    for m in range(7, 42):
        for p in _SMALL_PRIMES:
            for k, l in ((0, 1), (12, 40), (-84, 7), (360, 3 * 5 * 7 * 11)):
                assert (decide_spin(m, k, l, p).invariant_values
                        == decide_local((m - 1) // 2, k, l, p).invariant_values)


def test_decide_spin_trail_is_the_odd_prime_guard_then_the_sp_trail():
    for m in range(7, 42):
        for p in _SMALL_PRIMES:
            assert [g.name for g in decide_spin(m, 1, 2, p).guards] == [
                "odd-prime", "retractibility"]


def test_every_guard_a_decider_builds_can_fail():
    # a guard that passes on every input only lengthens the trail
    verdicts = [decide_local(n, 1, 2, p)
                for n in range(1, 21) for p in _SMALL_PRIMES]
    verdicts += [decide_spin(m, 1, 2, p)
                 for m in range(7, 42) for p in _SMALL_PRIMES]
    verdicts += [v for n in range(1, 21) for p in _SMALL_PRIMES
                 for v in local_partition(n, p)[1].values()]
    built = {g.name for v in verdicts for g in v.guards}
    failed = {g.name for v in verdicts for g in v.guards if not g.passed}
    assert built == failed


def test_pi_4n1_order_values():
    # the order of the p-local pi_{4n+1} of the k-bundle's gauge group is
    # the class of k that decide_local compares, printed as invariant_k
    assert decide_local(2, 5, 0, 5).invariant_values[0] == 5
    assert decide_local(2, 3, 0, 5).invariant_values[0] == 1
    assert decide_local(4, 48, 0, 3).invariant_values[0] == 3


def test_retractible_table():
    assert retractible(LieFamily.SP, 2, 3) is True
    assert retractible(LieFamily.SP, 3, 3) is False
    assert retractible(LieFamily.E8, None, 7) is True
    assert retractible(LieFamily.E8, 8, 7) is True   # a given rank is allowed
    assert retractible(LieFamily.E8, None, 5) is False
    assert retractible(LieFamily.SU, 5, 3) is True   # 5 >= 5
    assert retractible(LieFamily.SU, 6, 3) is False
    assert retractible(LieFamily.SPIN_ODD, 3, 3) is False
    assert retractible(LieFamily.SPIN_ODD, 2, 3) is True
    assert retractible(LieFamily.G2, None, 5) is True
    assert retractible(LieFamily.G2, None, 3) is False
    assert retractible(LieFamily.F4, None, 5) is True
    assert retractible(LieFamily.E6, None, 5) is True
    assert retractible(LieFamily.E7, None, 5) is False
    assert retractible(LieFamily.E7, None, 7) is True


@pytest.mark.parametrize("family", [f.value for f in LieFamily]
                         + ["XX", None, 0, 3])
@pytest.mark.parametrize("rank", [None, 3])
def test_retractible_rejects_a_family_that_is_not_a_lie_family(family, rank):
    # a value string is not the family: "SU" at rank 3 must not read the
    # Sp bound, and "G2" without a rank must not reach an attribute
    with pytest.raises(OutOfRange):
        retractible(family, rank, 3)


def test_retractible_needs_rank_for_classical_families():
    with pytest.raises(OutOfRange):
        retractible(LieFamily.SU, None, 5)
    with pytest.raises(OutOfRange):
        retractible(LieFamily.SP, 0, 5)
    with pytest.raises(OutOfRange):
        retractible(LieFamily.SPIN_ODD, -2, 5)


@settings(max_examples=60)
@given(st.sampled_from([2, 4, 6]), st.integers(0, 600))
def test_sp_retractibility_equals_local_guard(n, k):
    """decide_local claims something exactly when Sp(n) is retractible."""
    for p in (3, 5, 7):
        v = decide_local(n, k, k + 1, p)
        assert (v.outcome is not Outcome.NOT_DETERMINED) == \
            retractible(LieFamily.SP, n, p)


def test_sp_and_spin_odd_retractibility_read_the_local_guard(monkeypatch):
    # one guard decides both the p-local answers and Sp/SpinOdd
    # retractibility; SU keeps its own bound
    monkeypatch.setattr(gauge, "_retract_guard", lambda n, p: GuardCheck(
        "retractibility", False, "forced to fail"))
    assert retractible(LieFamily.SP, 1, 5) is False
    assert retractible(LieFamily.SPIN_ODD, 1, 5) is False
    assert retractible(LieFamily.SU, 1, 5) is True


@pytest.mark.parametrize("n", [0, -3])
def test_decide_local_rejects_nonpositive_rank(n):
    with pytest.raises(OutOfRange):
        decide_local(n, 1, 2, 5)


@pytest.mark.parametrize("family", list(LieFamily))
@pytest.mark.parametrize("p", [4, -7, 1, 0, 9])
def test_retractible_rejects_non_prime_in_every_family(family, p):
    with pytest.raises(OutOfRange, match=f"^{p} is not prime$"):
        retractible(family, 3, p)


def test_is_prime_runs_once_per_verdict(monkeypatch):
    calls = []
    original = arith.is_prime

    def counting(p):
        calls.append(p)
        return original(p)

    # require_prime reaches arith's is_prime
    monkeypatch.setattr(arith, "is_prime", counting)
    verdicts = 0
    for n in (1, 2, 5):
        for p in (2, 3, 5, 7):
            for k, l in ((0, 1), (12, 40), (-84, 7)):
                decide_local(n, k, l, p)
                verdicts += 1
    for m in (7, 8, 13):
        for p in (2, 5, 11):
            decide_spin(m, 84, 0, p)
            verdicts += 1
    # a partition holds the verdicts of a whole grid, and is one call
    for n in (1, 2, 5):
        for p in (2, 3, 999_999_999_989):
            local_partition(n, p)
            verdicts += 1
    assert len(calls) == verdicts


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 7))
def test_local_partition_equals_decide_local_on_every_pair(n, p):
    classes, verdicts = local_partition(n, p)
    b = 4 * n * (2 * n + 1)
    assert len(classes) == b + 1
    for k in range(b + 1):
        assert classes[k] == decide_local(n, k, 0, p).invariant_values[0]
    assert set(verdicts) == {(a, c) for a in classes for c in classes}
    for k in range(b + 1):
        for l in range(b + 1):
            assert verdicts[classes[k], classes[l]] == decide_local(n, k, l, p)


def test_is_prime_runs_once_per_p_part_query(monkeypatch):
    calls = []
    original = arith.is_prime

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(arith, "is_prime", counting)
    queries = 0
    for n in (1, 2, 5):
        for p in (5, 7, 999_999_999_989):
            identity_samelson_p_part(n, p)
            queries += 1
    assert len(calls) == queries


@settings(max_examples=200)
@given(st.integers(1, 12), st.integers(-10_000, 10_000),
       st.integers(-10_000, 10_000), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_local_verdict_values_are_public_p_parts(n, k, l, p):
    b = 4 * n * (2 * n + 1)
    verdict = decide_local(n, k, l, p)
    assert verdict.invariant_values == (
        gcd_p_part(gcd(k, b), p), gcd_p_part(gcd(l, b), p))


# (module, name, a wrong variant of the real value, the call that must
# catch it, and the message it raises): every cross-check in phi and gauge
# that the rest of the suite does not reach
_CROSS_CHECK_FAULTS = [
    (lattice, "element_order_in_coker", lambda real: lambda a, v: real(a, v) + 1,
     lambda: samelson_order(1),
     "gcd route gave 12 but cokernel route gave 13 at n=1"),
    (gauge, "_RHO_UNIT", lambda real: Fraction(1, 7),
     lambda: mapping_group_order(2),
     "mapping group order is not integral at n=2"),
    (gauge, "_RHO_UNIT", lambda real: Fraction(1, 6),
     lambda: mapping_group_order(2),
     "table-driven order 20 differs from (2n+1)!/3 at n=2"),
    (gauge, "_THETA_UNIT", lambda real: Fraction(1, 7),
     lambda: im_delta_gen(2, 1),
     "connecting-map unit is not integral at n=2"),
    # the quotient's divisor is gcd(mapping group order, connecting image)
    (gauge, "gcd", lambda real: lambda a, b: 7,
     lambda: im_partial_order(2, 1),
     "quotient not exact at n=2, k=1"),
    (gauge, "closed_form_order", lambda real: lambda n: 2 * real(n),
     lambda: im_partial_order(2, 1),
     "boundary image order 40 differs from 4n(2n+1)/gcd(k,B) at n=2, k=1"),
]


@pytest.mark.parametrize(
    "module, name, wrong, call, message", _CROSS_CHECK_FAULTS,
    ids=["coker-route", "rho-integrality", "rho-closed-form",
         "theta-integrality", "quotient-exactness", "boundary-closed-form"])
def test_every_engine_cross_check_raises_oracle_mismatch(
        monkeypatch, module, name, wrong, call, message):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    with pytest.raises(OracleMismatch) as caught:
        call()
    assert str(caught.value) == message
