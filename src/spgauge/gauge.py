"""Homotopy invariants and p-local classification oracles for gauge groups
of principal Sp(n)-bundles over the 4-sphere.

Bundles are classified by an integer k (the second symplectic Chern class of
the classifying map); the invariants here are gcd-type quantities in k whose
moduli come out of the image pipeline, plus verdict-producing deciders that
only ever claim what their theorem guards cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import factorial, gcd

from .arith import frac_gcd, is_prime, p_part
from .chdata import ksp_basis, susp_q2
from .errors import (
    BadDimension,
    EvenPrime,
    NotPrime,
    OddRank,
    OracleMismatch,
    OutOfRange,
)
from .phi import closed_form_order


@dataclass(frozen=True)
class Bundle:
    """A principal Sp(n)-bundle over S^4 with classifying integer k."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise OddRank("bundle rank must be a positive integer")


def sutherland_invariant(bundle: Bundle) -> int:
    """The coarse classification invariant: gcd(k, n(2n+1)) for even n,
    gcd(k, 4n(2n+1)) for odd n."""
    n, k = bundle.n, bundle.k
    modulus = n * (2 * n + 1) if n % 2 == 0 else 4 * n * (2 * n + 1)
    return gcd(k, modulus)


def refined_invariant(bundle: Bundle) -> int:
    """The finer invariant gcd(k, 4n(2n+1)) valid for every rank."""
    return gcd(bundle.k, closed_form_order(bundle.n))


def _require_even_rank(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise OddRank(f"rank-2 mapping pipeline needs even n >= 2, got {n}")


def mapping_group_order(n: int) -> int:
    """Order of the group of homotopy classes from the (4n-5)-fold suspension
    of the rank-2 quasi-projective space into Sp(n), for even n.

    Derived from the rho-generator table: the image of the comparison map is
    generated by (2n+1)! * frac_gcd of the top-row coefficients {1/3, 1}, so
    the cokernel is cyclic of order (2n+1)!/3.  The table-driven value is
    checked against that closed form.
    """
    _require_even_rank(n)
    # suspension 4n-3 is 5 mod 8 for even n, so the rho pair applies
    basis = ksp_basis(susp_q2(4 * n - 3))
    unit = frac_gcd([g.ch.coeff(2) for g in basis])
    order = factorial(2 * n + 1) * unit
    if order.denominator != 1:
        raise OracleMismatch(f"mapping group order is not integral at n={n}")
    order = int(order)
    if order != factorial(2 * n + 1) // 3:
        raise OracleMismatch(
            f"table-driven order {order} differs from (2n+1)!/3 at n={n}"
        )
    return order


def im_delta_gen(n: int, k: int) -> int:
    """Generator of the image of the k-th connecting map into the top
    cohomology class group, for even n: |k| (2n-1)!/6.

    The theta-generator table supplies the top-row coefficients {-1/6, 2};
    the attaching-map step scales their subgroup generator by (2n-1)! and
    the bundle multiplies it by k.  Returns 0 when k = 0.
    """
    _require_even_rank(n)
    # suspension 4n-7 is 1 mod 8 for even n, so the theta pair applies
    basis = ksp_basis(susp_q2(4 * n - 7))
    unit = factorial(2 * n - 1) * frac_gcd([g.ch.coeff(2) for g in basis])
    if unit.denominator != 1:
        raise OracleMismatch(f"connecting-map unit is not integral at n={n}")
    return abs(k) * int(unit)


@dataclass(frozen=True)
class Q2MappingReport:
    """Order of the mapping-space quotient along with the gcd-form value the
    statement of the classification advertises; the two differ for even
    n >= 4, which is why both are carried."""

    n: int
    k: int
    order: int
    gcd_form: int

    @property
    def matches_gcd_form(self) -> bool:
        return self.order == self.gcd_form


def q2_mapping_invariant(n: int, k: int) -> int:
    """Order of the quotient of the rank-2 mapping group by the image of the
    k-th connecting map: gcd of the two subgroup generators, with
    gcd(m, 0) = m."""
    return gcd(mapping_group_order(n), im_delta_gen(n, k))


def q2_mapping_report(n: int, k: int) -> Q2MappingReport:
    """q2_mapping_invariant next to the advertised closed form
    gcd(k, 4n(2n+1)); they agree at n = 2 and diverge for even n >= 4."""
    return Q2MappingReport(
        n=n,
        k=k,
        order=q2_mapping_invariant(n, k),
        gcd_form=gcd(k, closed_form_order(n)),
    )


@dataclass(frozen=True)
class ImPartialReport:
    """Order of the image of the induced boundary map, with the factorial
    closed form (2n+1)!/(3 gcd(k, 4n(2n+1))) reported alongside."""

    n: int
    k: int
    order: int
    factorial_form: int

    @property
    def matches_factorial_form(self) -> bool:
        return self.order == self.factorial_form


def im_partial_order(n: int, k: int) -> int:
    """Order of the image of the induced boundary map on the mapping group:
    mapping_group_order(n) / q2_mapping_invariant(n, k).

    Equals 4n(2n+1)/gcd(k, 4n(2n+1)); the quotient is checked.  k = 0 gives 1.
    """
    total = mapping_group_order(n)
    inv = q2_mapping_invariant(n, k)
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


def im_partial_report(n: int, k: int) -> ImPartialReport:
    order = im_partial_order(n, k)
    g = gcd(k, closed_form_order(n))
    return ImPartialReport(
        n=n,
        k=k,
        order=order,
        factorial_form=factorial(2 * n + 1) // (3 * g),
    )


class Outcome(Enum):
    EQUIVALENT = "equivalent"
    DISTINCT = "distinct"
    NOT_DETERMINED = "not-determined"


@dataclass(frozen=True)
class GuardCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Verdict:
    """Decision record: the outcome, the criterion it used, the pair of
    invariant values compared, and every guard that was checked.

    Equivalent and Distinct are only ever returned with all guards passed;
    the invariant values are reported even on NotDetermined, as data."""

    outcome: Outcome
    criterion: str
    invariant_values: tuple[int, int]
    guards: tuple[GuardCheck, ...]

    def guards_passed(self) -> bool:
        return all(g.passed for g in self.guards)


_LOCAL_CRITERION = "p-parts of gcd(k, 4n(2n+1)) coincide"


def _retract_guard(n: int, p: int) -> GuardCheck:
    lhs = (p - 1) ** 2 + 1
    return GuardCheck(
        name="retractibility",
        passed=lhs >= 2 * n,
        detail=f"(p-1)^2+1 = {lhs} vs 2n = {2 * n}",
    )


def _p_power(a: int, p: int) -> int:
    """p-part of a nonzero a for a p the caller has already found prime."""
    a = abs(a)
    power = 1
    while a % p == 0:
        a //= p
        power *= p
    return power


def _local_verdict(n: int, k: int, l: int, p: int,
                   guards: tuple[GuardCheck, ...]) -> Verdict:
    # n >= 1, so b > 0 and both gcds are nonzero
    b = closed_form_order(n)
    values = (_p_power(gcd(k, b), p), _p_power(gcd(l, b), p))
    if not all(g.passed for g in guards):
        outcome = Outcome.NOT_DETERMINED
    elif values[0] == values[1]:
        outcome = Outcome.EQUIVALENT
    else:
        outcome = Outcome.DISTINCT
    return Verdict(outcome, _LOCAL_CRITERION, values, guards)


def decide_local(n: int, k: int, l: int, p: int) -> Verdict:
    """p-local homotopy classification of the gauge groups of the k- and
    l-bundles of rank n.

    Under the retractibility guard (p-1)^2 + 1 >= 2n the gauge groups are
    p-locally equivalent exactly when the p-parts of gcd(., 4n(2n+1)) agree;
    outside the guard the criterion claims nothing and the verdict is
    NotDetermined.  Raises OutOfRange for n < 1."""
    if n < 1:
        raise OutOfRange(f"rank must be a positive integer, got {n}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _local_verdict(n, k, l, p, (_retract_guard(n, p),))


def decide_spin(m: int, k: int, l: int, p: int) -> Verdict:
    """p-local classification for Spin(m) gauge groups, m = 2n+1 or 2n+2.

    Reduces to the rank-n symplectic criterion at odd primes.  Guards: the
    dimension must give 2n >= 6 (m <= 6 raises BadDimension), p must be odd,
    and the retractibility bound (p-1)^2 + 1 >= 2n must hold; any failing
    guard yields NotDetermined."""
    if m <= 6:
        raise BadDimension(f"Spin({m}) is outside the criterion (needs m >= 7)")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    eps = 1 if m % 2 == 1 else 2
    n = (m - eps) // 2
    guards = (
        GuardCheck("dimension", 2 * n >= 6, f"m = {m} gives 2n = {2 * n}"),
        GuardCheck("odd-prime", p != 2, f"p = {p}"),
        _retract_guard(n, p),
    )
    return _local_verdict(n, k, l, p, guards)


def pi_4n1_order(n: int, k: int, p: int) -> int:
    """Order of the p-localized homotopy group in degree 4n+1 of the gauge
    group of the k-bundle: the p-part of gcd(k, 4n(2n+1)), odd primes only."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise EvenPrime("the degree-(4n+1) order is only computed at odd primes")
    return p_part(gcd(k, closed_form_order(n)), p)


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

    SU(n) needs (p-1)^2 + 1 >= n; Sp(n) and Spin(2n+1) need
    (p-1)^2 + 1 >= 2n; the exceptional families need p >= 5 (G2, F4, E6)
    or p >= 7 (E7, E8).  rank is ignored for the exceptional families.
    Raises NotPrime when p is not prime, in every family."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if family in _EXCEPTIONAL_MIN_PRIME:
        return p >= _EXCEPTIONAL_MIN_PRIME[family]
    if rank is None or rank < 1:
        raise OddRank(f"{family.value} needs a positive rank parameter")
    bound = rank if family is LieFamily.SU else 2 * rank
    return (p - 1) ** 2 + 1 >= bound
