"""Unit tests for the self-check sweep and its brute-force oracles."""

import dataclasses
import itertools
import marshal
import os
import re
import signal
import sys
import time
from collections import Counter
from enum import IntEnum
from fractions import Fraction

import pytest

import spgauge.arith as arith
import spgauge.gauge as gauge
import spgauge.phi as phi
import spgauge.verify as verify_mod
from spgauge.errors import OutOfRange
from spgauge.oracles import divisors, image_size_tally
from spgauge.verify import verify_sweep


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_verify_sweep_minimal_scale():
    report = verify_sweep(2)
    assert report.status == "ok"
    assert report.command == "verify"
    # the rank-2 anchor row is present
    assert {"check": "samelson-orders", "n": 2, "samelson_order": 40} \
        in report.rows


def test_verify_sweep_includes_discrepancy_row_from_three():
    report = verify_sweep(3)
    assert report.status == "ok"
    rows = [r for r in report.rows if r.get("check") == "printed-backend-discrepancy"]
    assert len(rows) == 1
    row = rows[0]
    assert (row["n"], row["k"]) == (3, 2)
    assert row["scaled_coeff"] == 150
    assert row["modulus"] == 84
    assert row["divisible"] is False
    assert row["printed_pinned"] is False
    assert row["series_order"] == 84


def test_verify_sweep_rejects_tiny_max_n():
    with pytest.raises(OutOfRange):
        verify_sweep(1)


class _Three(IntEnum):
    THREE = 3


@pytest.mark.parametrize("max_n", [
    None, "3", 2.5, 3.0, Fraction(3), True,
    pytest.param(_Three.THREE, id="IntEnum"),
    # (2n+1)! is past math.factorial's range from n = 2^62 on a 64-bit build
    pytest.param(2**62, id="2^62"), pytest.param(10**31, id="10^31"),
])
def test_verify_sweep_rejects_a_bad_max_n_before_forking(monkeypatch, max_n):
    def no_fork():
        raise AssertionError("forked for a bad max_n")

    monkeypatch.setattr(verify_mod.os, "fork", no_fork)
    message = (f"(2n+1)! is past the factorial's range at n={max_n}"
               if type(max_n) is int else "verify needs an integer max_n >= 2")
    with pytest.raises(OutOfRange, match=f"^{re.escape(message)}"):
        verify_sweep(max_n)


def test_divisibility_check_catches_a_generator_off_the_oracle(monkeypatch):
    real = verify_mod.phi_images

    def one_wrong(max_n):
        for res in real(max_n):
            if res.n == 5:
                gens = list(res.upper_gens)
                gens[2] += 2 * res.lower_gen  # still divisible, still even
                res = dataclasses.replace(res, upper_gens=tuple(gens))
            yield res

    monkeypatch.setattr(verify_mod, "phi_images", one_wrong)
    result = verify_mod.check_image_stream(6)[1]
    assert result.rows[0]["all_divisible"] is False
    assert len(result.failures) == 1
    assert result.failures[0].startswith(
        "n=5 k=3: generator 1996940 differs from the surjection oracle")


def _gens_at_two(gens):
    # the rank-2 generators (40, 120) made gens: (80, 240) pins the order
    # 80, not 40; (40, 140), whose gcd 20 is not the anchor 40, pins none
    def wrong(real):
        def images(max_n):
            for res in real(max_n):
                if res.n == 2:
                    res = dataclasses.replace(res, upper_gens=gens)
                yield res

        return images

    return wrong


# (the name as verify holds it, a wrong variant of the real one, the rank
# the walk goes to, and the orders check's one failure, at that rank): the
# engine does not check the order it prints, so verify must
_WRONG_ORDERS = [
    ("phi_images", _gens_at_two((80, 240)), 2,
     "pipeline order 80 differs from closed form 40 at n=2"),
    ("phi_images", _gens_at_two((40, 140)), 2,
     "series-backend image at n=2 failed to pin the order"),
    ("samelson_b", lambda real: lambda n: 2 * real(n), 1,
     "pipeline order 12 differs from closed form 24 at n=1"),
]


@pytest.mark.parametrize("name, wrong, max_n, failure", _WRONG_ORDERS,
                         ids=["engine-order", "unpinned", "closed-form"])
def test_the_orders_check_names_a_wrong_order(monkeypatch, name, wrong,
                                              max_n, failure):
    monkeypatch.setattr(verify_mod, name, wrong(getattr(verify_mod, name)))
    orders = verify_mod.check_image_stream(max_n)[0]
    assert orders.failures == [failure]
    # the failing rank leaves out its row, and only its row
    assert [row["n"] for row in orders.rows] == list(range(1, max_n))
    report = verify_sweep(2)
    assert report.status == "failed"
    assert f"samelson-orders: {failure}" in report.failures


def test_a_wrong_oracle_count_fails_the_sweep(monkeypatch):
    # the oracle rows are walked beside the image stream; one count off at
    # one rank must show as a divisibility failure at that rank
    real = verify_mod.surjection_counts_by_rank

    def one_wrong(max_n):
        for n, counts in enumerate(real(max_n), 1):
            if n == 7:
                counts[3] += 2
            yield counts

    monkeypatch.setattr(verify_mod, "surjection_counts_by_rank", one_wrong)
    report = verify_sweep(20)
    assert report.status == "failed"
    assert any(f.startswith("scaled-coefficient-divisibility: n=7 k=3: ")
               for f in report.failures)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_sweep_walks_the_image_stream_once(monkeypatch, tmp_path):
    # the walk runs in a forked child, whose memory this process never
    # sees, so each call leaves a line in a file
    real = verify_mod.phi_images
    calls = tmp_path / "calls"

    def counted(max_n):
        with calls.open("a") as fh:
            fh.write(f"{max_n}\n")
        return real(max_n)

    monkeypatch.setattr(verify_mod, "phi_images", counted)
    assert verify_sweep(6).status == "ok"
    assert [int(line) for line in calls.read_text().split()] == [6]
    _assert_no_child_left()


def test_an_exception_in_the_child_walk_reaches_the_caller(monkeypatch,
                                                           capfd):
    # verify_sweep has refused every bad max_n before the fork, so an
    # exception in the walk is a fault: the child prints its traceback and
    # exits 1, and the caller raises ChildProcessError, not the exception
    def out_of_range(max_n):
        raise OutOfRange(f"no walk to {max_n}")

    monkeypatch.setattr(verify_mod, "check_image_stream", out_of_range)
    with pytest.raises(ChildProcessError,
                       match="sent 0 bytes and exited with status 1$"):
        verify_sweep(6)
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "spgauge.errors.OutOfRange: no walk to 6" in err
    _assert_no_child_left()


def test_a_child_that_exits_without_answering_raises(monkeypatch):
    monkeypatch.setattr(verify_mod, "check_image_stream",
                        lambda max_n: os._exit(3))
    with pytest.raises(ChildProcessError, match="status 3$"):
        verify_sweep(6)
    _assert_no_child_left()


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(3), "3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
], ids=["exit-3", "sigkill"])
def test_a_child_killed_mid_answer_raises(monkeypatch, end, status):
    # the child writes 5 bytes of a real answer and dies; its exit status,
    # not the cut answer, decides
    def cut_walk(write_fd, max_n):
        try:
            fields = [(c.name, c.rows, c.failures)
                      for c in verify_mod.check_image_stream(max_n)]
            os.write(write_fd, marshal.dumps(fields)[:5])
            end()
        finally:
            os._exit(0)

    monkeypatch.setattr(verify_mod, "_walk_in_child", cut_walk)
    with pytest.raises(ChildProcessError,
                       match=f"sent 5 bytes and exited with status {status}$"):
        verify_sweep(6)
    _assert_no_child_left()


# (gauge's name, a wrong variant of the real one, the first failure of the
# separation check): faults of the rank-2 pipeline's constant table, which
# gauge does not check itself
_TABLE_FAULTS = [
    ("_RHO_UNIT", lambda real: Fraction(1, 7),
     "n=2: mapping group order differs from c(n)B"),
    ("_RHO_UNIT", lambda real: Fraction(1, 6),
     "n=2: mapping group order differs from c(n)B"),
    ("_THETA_UNIT", lambda real: Fraction(1, 7),
     "n=2 k=1: quotient invariant differs from c(n)gcd(k, B)"),
    # the quotient's divisor is gcd(mapping group order, connecting image)
    ("gcd", lambda real: lambda a, b: 7,
     "n=2 k=0: quotient invariant differs from c(n)gcd(k, B)"),
]


@pytest.mark.parametrize(
    "name, wrong, first", _TABLE_FAULTS,
    ids=["rho-integrality", "rho-closed-form", "theta-integrality",
         "quotient-exactness"])
def test_a_table_fault_fails_the_separation_check(monkeypatch, name, wrong,
                                                  first):
    monkeypatch.setattr(gauge, name, wrong(getattr(gauge, name)))
    result = verify_mod.check_separation(20)
    assert not result.ok and result.failures[0] == first
    assert verify_sweep(20).status == "failed"


def test_an_exception_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    # the child would walk for a minute; the parent's own check raises at
    # once, and the sweep must kill the child rather than wait for it
    def broken():
        raise RuntimeError("parent check broke")

    monkeypatch.setattr(verify_mod, "check_image_stream",
                        lambda max_n: time.sleep(60))
    monkeypatch.setattr(verify_mod, "check_series_identity", broken)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent check broke"):
        verify_sweep(6)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize("m", range(1, 8))
def test_image_size_tally_matches_direct_enumeration(m):
    direct = Counter(map(len, map(set, itertools.product(range(m), repeat=m))))
    assert image_size_tally(m) == direct


def test_series_identity_enumeration_catches_a_wrong_oracle(monkeypatch):
    real = verify_mod.surjection_counts

    def one_wrong(m, top):
        row = real(m, top)
        if m == 5:
            row[3] += 2
        return row

    monkeypatch.setattr(verify_mod, "surjection_counts", one_wrong)
    result = verify_mod.check_series_identity()
    assert result.rows[-1]["ok"] is False
    assert "m=5 k=3: enumeration disagrees" in result.failures


def test_a_valuation_off_at_one_prime_fails_the_sweep(monkeypatch):
    # the engine takes every p-part through arith.valuation; verify's own
    # p-parts must not, or a fault there shows on both sides and cancels
    real = arith.valuation

    def one_too_large_at_seven(a, p):
        return real(a, p) + (p == 7)

    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("spgauge.")
               and getattr(mod, "valuation", None) is real]
    assert {arith, gauge} <= set(holders)
    for mod in holders:
        monkeypatch.setattr(mod, "valuation", one_too_large_at_seven)
    assert verify_sweep(20).status == "failed"


def test_a_doubled_closed_form_fails_the_sweep(monkeypatch):
    # the engine reads B = 4n(2n+1) from arith.closed_form_order; verify's
    # own B must not, or a wrong B shows on both sides and cancels, so the
    # closed form is doubled in every module of the package that holds it
    real = arith.closed_form_order
    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("spgauge.")
               and getattr(mod, "closed_form_order", None) is real]
    assert {arith, phi, gauge} <= set(holders)
    for mod in holders:
        monkeypatch.setattr(mod, "closed_form_order", lambda n: 2 * real(n))
    assert verify_mod.check_guards(20).failures
    assert verify_sweep(20).status == "failed"


def _doubled_at_k_one(real):
    return lambda n, k: real(n, k) * (2 if k == 1 else 1)


def _five_part_one_at_k_five(real):
    # decide_local reading the 5-part of gcd(5, 40) as 1, not 5, at n = 2,
    # p = 5; no pair of (0, 1) and (1, 2) holds k = 5, so only the whole
    # grid at (2, 5) reaches it
    def decide(n, k, l, p):
        verdict = real(n, k, l, p)
        if (n, k, p) != (2, 5, 5):
            return verdict
        return dataclasses.replace(
            verdict, invariant_values=(1, verdict.invariant_values[1]))

    return decide


# (engine name as verify imported it, a wrong variant of the real one, the
# check that must catch it and its arguments), by test id
_WRONG_ENGINES = [
    pytest.param("q2_mapping_invariant", _doubled_at_k_one,
                 "check_separation", (20,),
                 id="q2_mapping_invariant-check_separation"),
    pytest.param("mapping_group_order", lambda real: lambda n: 2 * real(n),
                 "check_separation", (20,),
                 id="mapping_group_order-check_separation"),
    pytest.param("retractible",
                 lambda real: lambda family, rank, p: not real(family, rank, p),
                 "check_guards", (20,), id="retractible-check_guards"),
    # the class of k = 0, the p-part of B, one power of p too large
    pytest.param("decide_local",
                 lambda real: lambda n, k, l, p: (lambda v: dataclasses.replace(
                     v, invariant_values=(v.invariant_values[0] * p ** (k == 0),
                                          v.invariant_values[1])))(
                     real(n, k, l, p)),
                 "check_guards", (20,), id="decide_local-check_guards"),
    pytest.param("decide_local", _five_part_one_at_k_five,
                 "check_guards", (20,), id="decide_local-check_guards-grid"),
    pytest.param("phi_image",
                 lambda real: lambda n, backend="series": real(n, "printed"),
                 "check_printed_discrepancy", (),
                 id="phi_image-check_printed_discrepancy"),
]


@pytest.mark.parametrize("name, wrong, check, args", _WRONG_ENGINES)
def test_every_check_fails_on_a_wrong_engine(monkeypatch, name, wrong, check,
                                             args):
    monkeypatch.setattr(verify_mod, name, wrong(getattr(verify_mod, name)))
    result = getattr(verify_mod, check)(*args)
    assert result.failures and not result.ok
    assert verify_sweep(20).status == "failed"
