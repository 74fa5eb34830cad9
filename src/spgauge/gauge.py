"""Homotopy invariants and p-local classification oracles for gauge groups
of principal Sp(n)-bundles over the 4-sphere.

Bundles are classified by an integer k (the second symplectic Chern class of
the classifying map); the invariants here are gcd-type quantities in k whose
moduli come from B = 4n(2n+1) (arith.closed_form_order), plus every p-local
answer (the deciders, their partition of a grid, the guarded p-part of B),
which reads the one retractibility guard and p-part here and claims only
what it covers.  A Verdict holds the values it compares and the guards it
checked, and reads its outcome off them, so a failed guard cannot yield a
claim; a record that holds anything else raises OutOfRange.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, gcd

from .arith import (closed_form_order, frac_gcd, require_int, require_prime,
                    require_rank, valuation)
from .errors import GuardFailed, OracleMismatch, OutOfRange

# Top-row (y_7) Chern-character coefficients of the two free generators of
# the symplectic K-group of a suspended rank-2 quasi-projective space.  That
# group depends on the suspension only mod 8 (Bott periodicity), and for even
# n the pipelines below read just two suspensions: 4n-7, which is 1 mod 8
# (the theta pair), and 4n-3, which is 5 mod 8 (the rho pair).  So these two
# pairs are the whole table, and their subgroup generators are fixed too.
_THETA_TOP = (Fraction(-1, 6), Fraction(2))
_RHO_TOP = (Fraction(1, 3), Fraction(1))
_THETA_UNIT = frac_gcd(_THETA_TOP)
_RHO_UNIT = frac_gcd(_RHO_TOP)


def sutherland_invariant(n: int, k: int) -> int:
    """The coarse classification invariant of the rank-n k-bundle:
    gcd(k, B/4) = gcd(k, n(2n+1)) for even n, gcd(k, B) for odd n,
    B = 4n(2n+1).  Raises OutOfRange for n < 1."""
    require_rank(n)
    require_int("the bundle integer", k)
    b = closed_form_order(n)
    return gcd(k, b if n % 2 else b // 4)


def refined_invariant(n: int, k: int) -> int:
    """The finer invariant gcd(k, 4n(2n+1)) of the rank-n k-bundle, valid
    for every rank.  Raises OutOfRange for n < 1."""
    require_rank(n)
    require_int("the bundle integer", k)
    return gcd(k, closed_form_order(n))


def _require_even_rank(n: int) -> None:
    """OutOfRange unless n is an even int of at least 2 with 2n+1 at most
    sys.maxsize, past which math.factorial raises OverflowError (n >= 2^62
    on a 64-bit build)."""
    require_int("the rank", n)
    if n < 2 or n % 2 != 0:
        raise OutOfRange(f"rank-2 mapping pipeline needs even n >= 2, got {n}")
    if 2 * n + 1 > sys.maxsize:
        raise OutOfRange(f"rank-2 mapping pipeline takes (2n+1)!, past the "
                         f"factorial's range at n={n}")


def mapping_group_order(n: int) -> int:
    """Order of the group of homotopy classes from the (4n-5)-fold suspension
    of the rank-2 quasi-projective space into Sp(n), for even n.

    Derived from the rho pair: the image of the comparison map is generated
    by (2n+1)! * frac_gcd of the top-row coefficients {1/3, 1}, so the
    cokernel is cyclic of order (2n+1)!/3.  The table-driven value is
    checked against that closed form.
    """
    _require_even_rank(n)
    fact = factorial(2 * n + 1)
    order = fact * _RHO_UNIT
    if order.denominator != 1:
        raise OracleMismatch(f"mapping group order is not integral at n={n}")
    order = int(order)
    if order != fact // 3:
        raise OracleMismatch(
            f"table-driven order {order} differs from (2n+1)!/3 at n={n}"
        )
    return order


def im_delta_gen(n: int, k: int) -> int:
    """Generator of the image of the k-th connecting map into the top
    cohomology class group, for even n: |k| (2n-1)!/6.

    The theta pair supplies the top-row coefficients {-1/6, 2}; the
    attaching-map step scales their subgroup generator by (2n-1)! and the
    bundle multiplies it by k.  Returns 0 when k = 0.
    """
    _require_even_rank(n)
    require_int("the bundle integer", k)
    unit = factorial(2 * n - 1) * _THETA_UNIT
    if unit.denominator != 1:
        raise OracleMismatch(f"connecting-map unit is not integral at n={n}")
    return abs(k) * int(unit)


def q2_mapping_invariant(n: int, k: int) -> int:
    """Order of the quotient of the rank-2 mapping group by the image of the
    k-th connecting map: gcd of the two subgroup generators, with
    gcd(m, 0) = m.  It equals the advertised gcd(k, 4n(2n+1)) at n = 2 and
    differs from it for even n >= 4."""
    return gcd(mapping_group_order(n), im_delta_gen(n, k))


def im_partial_order(n: int, k: int) -> int:
    """Order of the image of the induced boundary map on the mapping group:
    mapping_group_order(n) / q2_mapping_invariant(n, k).

    Equals 4n(2n+1)/gcd(k, 4n(2n+1)); the quotient is checked.  k = 0 gives 1.
    The divisor is taken as q2_mapping_invariant does, from the mapping
    group order already in hand, so (2n+1)! is computed once.
    """
    total = mapping_group_order(n)
    inv = gcd(total, im_delta_gen(n, k))
    order, rem = divmod(total, inv)
    if rem != 0:
        raise OracleMismatch(f"quotient not exact at n={n}, k={k}")
    b = closed_form_order(n)
    if order != b // gcd(k, b):
        raise OracleMismatch(
            f"boundary image order {order} differs from 4n(2n+1)/gcd(k,B) "
            f"at n={n}, k={k}"
        )
    return order


class Outcome(Enum):
    EQUIVALENT = "equivalent"
    DISTINCT = "distinct"
    NOT_DETERMINED = "not-determined"


@dataclass(frozen=True)
class GuardCheck:
    """A guard a decider checked: OutOfRange unless name and detail are str
    and passed is a bool."""

    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and isinstance(self.detail, str)
                and isinstance(self.passed, bool)):
            raise OutOfRange(f"a guard needs a str name and detail and a bool "
                             f"passed, got {self!r}")


@dataclass(frozen=True)
class Verdict:
    """Decision record: the pair of invariant values compared and every
    guard that was checked.  The outcome is read off them, so no verdict,
    however built, claims past a failed guard: NotDetermined unless every
    guard passed, else Equivalent exactly when the two values are equal.
    The values are reported even on NotDetermined, as data.  OutOfRange
    unless the values are a pair of ints and the guards a tuple of
    GuardCheck."""

    criterion = "p-parts of gcd(k, 4n(2n+1)) coincide"

    invariant_values: tuple[int, int]
    guards: tuple[GuardCheck, ...]

    def __post_init__(self):
        values, guards = self.invariant_values, self.guards
        if not (isinstance(values, tuple) and len(values) == 2):
            raise OutOfRange(f"a verdict compares a pair of ints, got {values!r}")
        require_int("an invariant value", *values)
        if not (isinstance(guards, tuple)
                and all(isinstance(g, GuardCheck) for g in guards)):
            raise OutOfRange(f"a verdict's guards are a tuple of GuardCheck, "
                             f"got {guards!r}")

    def guards_passed(self) -> bool:
        return all(g.passed for g in self.guards)

    @property
    def outcome(self) -> Outcome:
        if not self.guards_passed():
            return Outcome.NOT_DETERMINED
        a, b = self.invariant_values
        return Outcome.EQUIVALENT if a == b else Outcome.DISTINCT


def _retract_guard(n: int, p: int) -> GuardCheck:
    lhs = (p - 1) ** 2 + 1
    return GuardCheck(
        name="retractibility",
        passed=lhs >= 2 * n,
        detail=f"(p-1)^2+1 = {lhs} vs 2n = {2 * n}",
    )


def _local_class(b: int, k: int, p: int) -> int:
    # the p-part of gcd(k, b), b = 4n(2n+1) with n >= 1, so the gcd is nonzero
    return p ** valuation(gcd(k, b), p)


def decide_local(n: int, k: int, l: int, p: int) -> Verdict:
    """p-local homotopy classification of the gauge groups of the k- and
    l-bundles of rank n.

    Under the retractibility guard (p-1)^2 + 1 >= 2n the gauge groups are
    p-locally equivalent exactly when the p-parts of gcd(., 4n(2n+1)) agree;
    outside the guard the criterion claims nothing and the verdict is
    NotDetermined.  Raises OutOfRange for n < 1."""
    require_rank(n)
    require_prime(p)
    require_int("the bundle integer", k, l)
    b = closed_form_order(n)
    return Verdict((_local_class(b, k, p), _local_class(b, l, p)),
                   (_retract_guard(n, p),))


def local_partition(n: int, p: int) -> tuple[list[int], dict]:
    """The decide_local grid of rank n at p by class: classes[k], the
    p-part of gcd(k, 4n(2n+1)), for each k in [0, 4n(2n+1)], and
    verdicts[a, c], the verdict of every k of class a against every l of
    class c.  n and p are checked once, as decide_local checks them."""
    require_rank(n)
    require_prime(p)
    guards = (_retract_guard(n, p),)
    b = closed_form_order(n)
    classes = [_local_class(b, k, p) for k in range(b + 1)]
    distinct = dict.fromkeys(classes)
    verdicts = {(a, c): Verdict((a, c), guards)
                for a in distinct for c in distinct}
    return classes, verdicts


def decide_spin(m: int, k: int, l: int, p: int) -> Verdict:
    """p-local classification for Spin(m) gauge groups, m = 2n+1 or 2n+2.

    At odd primes Spin(m) reduces to the rank-n symplectic criterion, so
    the verdict is decide_local's at n = (m-1)//2 with the odd-prime guard
    put first: p = 2 yields NotDetermined.  m <= 6 raises OutOfRange, and
    then p and the bundle integers are checked as decide_local checks
    them."""
    require_int("the dimension m", m)
    if m <= 6:
        raise OutOfRange(f"Spin({m}) is outside the criterion (needs m >= 7)")
    sp = decide_local((m - 1) // 2, k, l, p)
    return Verdict(sp.invariant_values,
                   (GuardCheck("odd-prime", p != 2, f"p = {p}"), *sp.guards))


def identity_samelson_p_part(n: int, p: int) -> int:
    """p-part of the order of the Samelson product of the bottom cell with
    the identity map: the p-part of B = 4n(2n+1), the class of k = 0.
    Requires n >= 1 (else OutOfRange) and p prime; outside the
    retractibility guard (p-1)^2 + 1 >= 2n the underlying theorem says
    nothing and GuardFailed is raised."""
    require_rank(n)
    require_prime(p)
    if not _retract_guard(n, p).passed:
        raise GuardFailed(f"retractibility guard (p-1)^2+1 >= 2n fails for "
                          f"n={n}, p={p}")
    return _local_class(closed_form_order(n), 0, p)


class LieFamily(Enum):
    SU = "SU"
    SP = "Sp"
    SPIN_ODD = "SpinOdd"
    G2 = "G2"
    F4 = "F4"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"


_EXCEPTIONAL_MIN_PRIME = {
    LieFamily.G2: 5,
    LieFamily.F4: 5,
    LieFamily.E6: 5,
    LieFamily.E7: 7,
    LieFamily.E8: 7,
}


def retractible(family: LieFamily, rank: int | None, p: int) -> bool:
    """Whether the generating complex of the group retracts off p-locally.

    SU(n) needs (p-1)^2 + 1 >= n; Sp(n) and Spin(2n+1) need the
    retractibility guard of every p-local answer, (p-1)^2 + 1 >= 2n; the
    exceptional families need p >= 5 (G2, F4, E6) or p >= 7 (E7, E8).  The
    exceptional families may leave rank out, and their answer does not
    depend on it.  Raises OutOfRange for a family that is not a LieFamily
    (its value string too), for a p that is not a prime int, for a rank
    that is not an int or is below 1, and for a classical family without a
    rank."""
    if not isinstance(family, LieFamily):
        raise OutOfRange(f"family must be a LieFamily, got {family!r}")
    require_prime(p)
    if rank is not None:
        require_rank(rank)
    if family in _EXCEPTIONAL_MIN_PRIME:
        return p >= _EXCEPTIONAL_MIN_PRIME[family]
    if rank is None:
        raise OutOfRange(f"{family.value} needs a rank parameter")
    if family is LieFamily.SU:
        return (p - 1) ** 2 + 1 >= rank
    return _retract_guard(rank, p).passed
