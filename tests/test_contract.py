"""The input contract at every public entry point that takes a rank, a
count or a prime, and at every exported record.

For every integer rank n below 1 the call raises OutOfRange; for any other
rank it returns or raises SpgaugeError, never anything else.  A rank whose
(2n+1)! is past math.factorial's range raises OutOfRange at once wherever
a factorial of it is taken or a walk goes up to it.  The same
holds for the counts of surjections and sweeps below their least valid
value, and for every p that is not prime or is too large for the primality
test to decide.  A verdict that claims EQUIVALENT or DISTINCT has passed
all of its guards.  An integer argument of an exported function or record
that is a float, a Fraction, a bool or an IntEnum member raises OutOfRange,
and so does a float, a bool or a str given to an oracle verify checks by.
Every exported record raises OutOfRange for a field of another type.  The command line exits 0, 1 or 2
on every argv, and each exit code prints what it promises.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import spgauge
from spgauge.arith import PRIME_BOUND, closed_form_order, is_prime
from spgauge.cli import main
from spgauge.errors import OutOfRange, SpgaugeError
from spgauge.gauge import (
    GuardCheck,
    LieFamily,
    Outcome,
    Verdict,
    decide_local,
    decide_spin,
    im_delta_gen,
    im_partial_order,
    local_partition,
    mapping_group_order,
    q2_mapping_invariant,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from spgauge.oracles import (
    divisors,
    gcd_p_part,
    rank2_factor,
    samelson_b,
    surjection_counts,
    surjection_counts_by_rank,
)
from spgauge.phi import BACKENDS, PhiResult, phi_image, phi_images
from spgauge.report import FORMATS, Report
from spgauge.series import printed_top_coeffs
from spgauge.verify import verify_sweep

_NONPOSITIVE = st.integers(max_value=0)
_ANY_RANK = st.one_of(_NONPOSITIVE, st.integers(min_value=1))
# the image pipeline does work polynomial in n, so its positive ranks stay small
_SMALL_RANK = st.one_of(_NONPOSITIVE, st.integers(1, 12))


ENTRY_POINTS = {
    "sutherland_invariant": (
        lambda n, k, l, p: sutherland_invariant(n, k), _ANY_RANK),
    "refined_invariant": (lambda n, k, l, p: refined_invariant(n, k), _ANY_RANK),
    "phi_image_series": (lambda n, k, l, p: phi_image(n, "series"), _SMALL_RANK),
    "phi_image_printed": (lambda n, k, l, p: phi_image(n, "printed"), _SMALL_RANK),
    "phi_images": (lambda n, k, l, p: list(phi_images(n)), _SMALL_RANK),
    # the order that order prints
    "samelson_order": (
        lambda n, k, l, p: phi_image(n).pinned_order, _SMALL_RANK),
    "decide_local": (decide_local, _ANY_RANK),
    "decide_spin": (decide_spin, _ANY_RANK),
    # the partition lists a class for each of 4n(2n+1) + 1 values of k
    "local_partition": (lambda n, k, l, p: local_partition(n, p), _SMALL_RANK),
    # the rank-2 mapping pipeline takes factorials of 2n+1, so ranks stay small
    "mapping_group_order": (lambda n, k, l, p: mapping_group_order(n), _SMALL_RANK),
    "im_delta_gen": (lambda n, k, l, p: im_delta_gen(n, k), _SMALL_RANK),
    "q2_mapping_invariant": (
        lambda n, k, l, p: q2_mapping_invariant(n, k), _SMALL_RANK),
    "im_partial_order": (lambda n, k, l, p: im_partial_order(n, k), _SMALL_RANK),
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
        with pytest.raises(OutOfRange):
            fn(n, k, l, p)
    else:
        try:
            fn(n, k, l, p)
        except SpgaugeError:
            pass


_RANK_2 = ("mapping_group_order", "im_delta_gen", "q2_mapping_invariant",
           "im_partial_order")


# the one refusal of a rank whose (2n+1)! is past math.factorial's range,
# from n = 2^62 on
_PAST_FACTORIAL = r"\(2n\+1\)! is past the factorial's range at n="


@pytest.mark.parametrize("name", _RANK_2)
@pytest.mark.parametrize("n", [2**62, 10**20, 10**31])
def test_rank_2_pipeline_past_the_factorial_range_raises_out_of_range(name, n):
    fn, _ = ENTRY_POINTS[name]
    with pytest.raises(OutOfRange, match=f"^{_PAST_FACTORIAL}{n}$"):
        fn(n, 5, 0, 2)


# the image exports that take a factorial of the rank, or walk rank by rank
# up to it, called with the rank alone; phi_images is not iterated
_IMAGE_PAST_FACTORIAL = {
    "phi_image_series": lambda n: phi_image(n, "series"),
    "phi_image_printed": lambda n: phi_image(n, "printed"),
    "phi_images": phi_images,
    "printed_top_coeffs": printed_top_coeffs,
}


@pytest.mark.parametrize("name", sorted(_IMAGE_PAST_FACTORIAL))
@pytest.mark.parametrize("n", [2**62, 10**31])
def test_an_image_rank_past_the_factorial_range_is_refused_at_once(name, n):
    # refused at the call, before a row is walked or a factorial taken
    with pytest.raises(OutOfRange, match=f"^{_PAST_FACTORIAL}{n}$"):
        _IMAGE_PAST_FACTORIAL[name](n)


@pytest.mark.parametrize("n", [2**62, 10**31])
def test_the_cheap_exports_answer_past_the_factorial_range(n):
    # 4n divides B = 4n(2n+1)
    assert refined_invariant(n, 4 * n) == 4 * n
    assert decide_local(n, 5, 10, 5).outcome is Outcome.NOT_DETERMINED


@settings(max_examples=150, deadline=None)
@given(m=st.integers(max_value=40), k=st.integers(max_value=40))
def test_surjection_counts_below_their_domain_raise_spgauge_error(m, k):
    # the row surj(m, 0..k) needs m >= 1 and k >= 0
    if m >= 1 and k >= 0:
        surjection_counts(m, k)
    else:
        with pytest.raises(OutOfRange):
            surjection_counts(m, k)


@settings(max_examples=50, deadline=None)
@given(max_n=st.integers(max_value=0))
def test_surjection_counts_by_rank_below_one_raises_before_any_row(max_n):
    # the call itself raises: the stream is never iterated
    with pytest.raises(OutOfRange):
        surjection_counts_by_rank(max_n)


@settings(max_examples=50, deadline=None)
@given(max_n=st.integers(max_value=1))
def test_verify_sweep_below_two_raises_spgauge_error(max_n):
    with pytest.raises(OutOfRange):
        verify_sweep(max_n)


# -- integer arguments that are not ints --------------------------------------


_INT = st.integers(-10**6, 10**6)
_RANK = st.integers(1, 12)
_EVEN_RANK = st.integers(1, 6).map(lambda n: 2 * n)
_PRIME = st.sampled_from([2, 3, 5, 7, 11, 13])

# each exported function that takes an integer, and the records GuardCheck
# and Verdict, with strategies for their integer arguments (a guard's passed
# is a bool, which is an int) that make every drawn call valid; a guard, a
# verdict or a list is built from its integers.
# The key's part before "[" is the exported name.
INTEGER_ARGUMENTS = {
    "closed_form_order": (closed_form_order, [_INT]),
    "is_prime": (is_prime, [_INT]),
    "printed_top_coeffs": (printed_top_coeffs, [_RANK]),
    "phi_image": (phi_image, [_RANK]),
    "phi_images": (phi_images, [_RANK]),
    "PhiResult": (lambda n, *gens: PhiResult(n, "series", gens),
                  [_RANK, _INT, _INT]),
    "GuardCheck": (lambda passed: GuardCheck("retractibility", passed, ""),
                   [st.booleans()]),
    "Verdict": (lambda a, b, passed: Verdict(
        (a, b), (GuardCheck("retractibility", passed, ""),)),
        [_INT, _INT, st.booleans()]),
    "sutherland_invariant": (sutherland_invariant, [_RANK, _INT]),
    "refined_invariant": (refined_invariant, [_RANK, _INT]),
    "decide_local": (decide_local, [_RANK, _INT, _INT, _PRIME]),
    "decide_spin": (decide_spin, [st.integers(7, 30), _INT, _INT, _PRIME]),
    "im_delta_gen": (im_delta_gen, [_EVEN_RANK, _INT]),
    "im_partial_order": (im_partial_order, [_EVEN_RANK, _INT]),
    "local_partition": (local_partition, [_RANK, _PRIME]),
    "mapping_group_order": (mapping_group_order, [_EVEN_RANK]),
    "q2_mapping_invariant": (q2_mapping_invariant, [_EVEN_RANK, _INT]),
    **{
        f"retractible[{family.value}]": (
            lambda n, p, family=family: retractible(family, n, p),
            [_RANK, _PRIME])
        for family in LieFamily
    },
}
# the exported callables left out: the enums, which take no integer
_NO_INTEGER_ARGUMENT = {"LieFamily", "Outcome"}


def test_every_exported_function_is_in_the_non_int_property():
    exported = {name for name, module in spgauge._EXPORTS.items()
                if module in ("arith", "series", "phi", "gauge")
                and callable(getattr(spgauge, name))}
    covered = {name.split("[")[0] for name in INTEGER_ARGUMENTS}
    assert exported == covered | _NO_INTEGER_ARGUMENT
    assert not covered & _NO_INTEGER_ARGUMENT


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_non_int_integer_argument_raises_spgauge_error(name, data):
    """A valid call returns; the same call with one integer argument turned
    into a float or a Fraction, of the same value or of any other, or into
    an IntEnum member of the same value, or a bool where the argument is
    not one, raises OutOfRange instead of giving an answer."""
    fn, strategies = INTEGER_ARGUMENTS[name]
    args = [data.draw(s, label="argument") for s in strategies]
    fn(*args)
    i = data.draw(st.integers(0, len(args) - 1), label="position")
    floats = [st.just(float(args[i])), st.floats()]
    fractions = [st.just(Fraction(args[i])), st.fractions()]
    # int subclasses: a guard's passed is the one bool argument
    subclasses = [st.just(IntEnum("Spoiled", {"VALUE": int(args[i])}).VALUE)]
    if not isinstance(args[i], bool):
        subclasses.append(st.booleans())
    args[i] = data.draw(st.one_of(floats + fractions + subclasses),
                        label="spoiled")
    with pytest.raises(OutOfRange):
        fn(*args)


# the oracles verify holds the engine to, each with a valid call's arguments
_ORACLE_CALLS = {
    "samelson_b": (samelson_b, (3,)),
    "rank2_factor": (rank2_factor, (3,)),
    "gcd_p_part": (gcd_p_part, (40, 5)),
    "divisors": (divisors, (12,)),
}


@pytest.mark.parametrize("bad", [2.5, 12.0, True, "12"],
                         ids=["float", "integral-float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(_ORACLE_CALLS))
def test_an_oracle_refuses_a_non_int_argument(name, bad):
    fn, args = _ORACLE_CALLS[name]
    fn(*args)
    for i in range(len(args)):
        spoiled = list(args)
        spoiled[i] = bad
        with pytest.raises(OutOfRange, match=f" must be an integer, got {bad!r}$"):
            fn(*spoiled)


# -- records ------------------------------------------------------------------


class _Five(IntEnum):
    FIVE = 5


# an int subclass among them: a bool, or an IntEnum member
_NON_INT = st.one_of(st.floats(), st.fractions(), st.text(), st.none(),
                     st.booleans(), st.just(_Five.FIVE))


# each exported class that holds fields, and valid values for them
RECORDS = {
    "GuardCheck": (GuardCheck, ("retractibility", True, "")),
    "Verdict": (Verdict, ((5, 5), (GuardCheck("retractibility", True, ""),))),
    "PhiResult": (PhiResult, (2, "series", (40, 120))),
    "Report": (Report, ("order", {"n": 2}, [{"n": 2, "samelson_order": 40}],
                        [])),
}
# the exported classes that hold no fields: the enums, looked up by value
_NO_FIELDS = {"LieFamily", "Outcome"}


def test_every_exported_class_is_in_the_record_property():
    # the errors, which take any message, are not records
    exported = {name for name in spgauge._EXPORTS
                if isinstance(getattr(spgauge, name), type)
                and not issubclass(getattr(spgauge, name), SpgaugeError)}
    assert exported == set(RECORDS) | _NO_FIELDS
    assert not set(RECORDS) & _NO_FIELDS


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_field_of_another_type_raises_out_of_range(name, data):
    """A record built from valid fields builds; with one field swapped for
    a float, a Fraction, a str, None, a bool or an IntEnum member (where
    the field is not one), it raises OutOfRange."""
    cls, fields = RECORDS[name]
    cls(*fields)
    i = data.draw(st.integers(0, len(fields) - 1), label="field")
    bad = data.draw(_NON_INT.filter(
        lambda x: type(x) is not type(fields[i])), label="spoiled")
    with pytest.raises(OutOfRange):
        cls(*fields[:i], bad, *fields[i + 1:])


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
    # the partition lists a class for each of 4n(2n+1) + 1 values of k, so
    # its rank is capped; n <= 0 is kept
    "local_partition": lambda n, k, l, p: local_partition(min(n, 12), p),
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
        with pytest.raises(OutOfRange):
            fn(n, k, l, p)
        return
    try:
        result = fn(n, k, l, p)
    except SpgaugeError:
        return
    if isinstance(result, Verdict) and result.outcome is not Outcome.NOT_DETERMINED:
        assert result.guards_passed()


# -- the command line ---------------------------------------------------------


_COMPOSITES = (4, 6, 8, 9, 15, 25, 1001, 10**12)
_PRIMES = (2, 3, 5, 7, 11, 13, 31, 999_999_999_989)


def _cli_int(cap=None):
    """Negatives, 0, 1, composites and primes, and with no cap also huge
    integers and integers at or above PRIME_BOUND.  A cap bounds an option
    whose work grows with its value."""
    parts = [
        st.integers(-3, 1),
        st.sampled_from([c for c in _COMPOSITES if cap is None or c <= cap]),
        st.sampled_from([p for p in _PRIMES if cap is None or p <= cap]),
    ]
    if cap is None:
        parts += [
            st.sampled_from([10**20, 2**89 - 1, 10**30 + 1]),
            st.integers(min_value=PRIME_BOUND),
        ]
    return st.one_of(parts)


_ANY_INT = _cli_int()

# each subcommand's options; None marks a flag that takes no value.  The
# ranks of the image pipelines stay small, as does invariant's rank, whose
# even values take factorials of 2n+1.
_CLI_OPTIONS = {
    ("order",): {"--n": _cli_int(40), "--max-n": _cli_int(30)},
    ("phi-gens",): {"--n": _cli_int(40),
                    "--backend": st.sampled_from([*BACKENDS, "tabulated"])},
    ("classify", "sp"): {"--grid": None, "--n": _ANY_INT, "--p": _ANY_INT,
                         "--k": _ANY_INT, "--l": _ANY_INT},
    ("classify", "spin"): {"--n": _ANY_INT, "--epsilon": _ANY_INT,
                           "--k": _ANY_INT, "--l": _ANY_INT, "--p": _ANY_INT},
    ("invariant",): {"--n": _cli_int(40), "--k": _ANY_INT},
    ("retractible",): {
        "--family": st.sampled_from([f.value for f in LieFamily] + ["SO"]),
        "--p": _ANY_INT, "--n": _ANY_INT},
    ("verify",): {"--max-n": _cli_int(30), "--jobs": _ANY_INT},
}


def _parses_as(fmt, out):
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(row) == len(header) for row in rows)
    else:
        lines = out.splitlines()
        header, rule, *rows = [line for line in lines if line.startswith("|")]
        width = header.count("|")
        assert rule == "|" + "|".join([" --- "] * (width - 1)) + "|"
        assert all(row.count("|") == width for row in rows)
        assert lines[0].startswith("# ") and lines[-1] == "status: ok"


@st.composite
def _argv(draw):
    """Every subcommand, each option present or missing, so that required
    flags go missing and exclusive ones conflict.  The grid's rank stays at
    most 8 and every sweep's at most 30, so each example is bounded."""
    command = draw(st.sampled_from(sorted(_CLI_OPTIONS)), label="command")
    argv = list(command)
    for flag, values in _CLI_OPTIONS[command].items():
        if "--grid" in argv and flag == "--n":
            values = _cli_int(8)
        repeats = 2 if command == ("invariant",) and flag == "--k" else 1
        for _ in range(draw(st.integers(0, repeats), label=flag)):
            argv.append(flag)
            if values is not None:
                argv.append(str(draw(values, label=flag)))
    fmt = draw(st.sampled_from([None, *FORMATS]), label="--format")
    if fmt is not None:
        argv += ["--format", fmt]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
# even ranks whose (2n+1)! is past math.factorial's range
@example(argv=["invariant", "--n", str(10**20), "--k", "5"])
@example(argv=["invariant", "--n", str(2**62), "--k", "5", "--format", "json"])
# and ranks the image commands must refuse before they walk
@example(argv=["phi-gens", "--n", str(2**62)])
@example(argv=["phi-gens", "--n", str(2**62), "--backend", "printed"])
@example(argv=["order", "--n", str(2**62)])
@example(argv=["order", "--max-n", str(10**31), "--format", "csv"])
def test_every_argv_exits_0_1_or_2_with_the_output_its_code_promises(argv):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "markdown"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2
            code = 2
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "verify"
    elif code == 2:
        assert out == ""
        assert "error: " in err.splitlines()[-1]
    else:
        _parses_as(fmt, out)
