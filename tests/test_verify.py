"""Unit tests for the self-check sweep and its brute-force oracles."""

import dataclasses
import hashlib
import itertools
import marshal
import os
import random
import signal
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import spgauge.arith as arith
import spgauge.gauge as gauge
import spgauge.phi as phi
import spgauge.verify as verify_mod
from spgauge.errors import OutOfRange
from spgauge.lattice import smith_normal_form
from spgauge.oracles import (
    EchelonLattice,
    divisors,
    enumerate_cosets,
    image_size_tally,
    order_by_addition,
)
from spgauge.verify import _SEED, _SMITH_INSTANCES, _random_matrix, verify_sweep


def _echelon_from_columns(mat):
    # the lattice check_coset_oracle builds: spanned by the matrix's columns
    lat = EchelonLattice(len(mat))
    for column in zip(*mat):
        lat.insert(column)
    return lat


def test_echelon_insert_and_membership():
    lat = EchelonLattice(2)
    lat.insert([2, 0])
    lat.insert([0, 3])
    assert lat.pivots() == {0: 2, 1: 3}
    assert not any(lat.reduce([4, -3]))
    assert any(lat.reduce([1, 0]))
    assert lat.reduce([5, 7]) == (1, 1)


def test_echelon_insert_combines_dependent_rows():
    lat = EchelonLattice(2)
    lat.insert([4, 0])
    lat.insert([6, 1])
    # index-4 sublattice: gcd combination leaves pivots 2 and 2
    assert lat.pivots() == {0: 2, 1: 2}
    assert len(enumerate_cosets(lat, 100)) == 4


def test_echelon_insert_keeps_pivots_positive():
    # the extended-gcd combination can come out negative; reduce() needs
    # positive pivots for its canonical box, so insert must normalize
    lat = EchelonLattice(2)
    lat.insert([4, 0])
    lat.insert([-6, 1])
    for row in lat.rows:
        lead = next(i for i, x in enumerate(row) if x)
        assert row[lead] > 0
    rep = lat.reduce([3, 5])
    assert all(0 <= rep[j] < p for j, p in lat.pivots().items())


def test_echelon_zero_vector_is_noop():
    lat = EchelonLattice(3)
    lat.insert([0, 0, 0])
    assert lat.rows == []
    assert lat.pivots() == {}


def test_enumerate_cosets_counts():
    lat = _echelon_from_columns([[2, 0], [0, 3]])
    cosets = enumerate_cosets(lat, 100)
    assert cosets is not None
    assert len(cosets) == 6
    assert set(cosets) == {(a, b) for a in range(2) for b in range(3)}


def test_enumerate_cosets_infinite_and_capped():
    thin = _echelon_from_columns([[2], [0]])
    assert enumerate_cosets(thin, 100) is None  # free direction left over
    big = _echelon_from_columns([[50, 0], [0, 50]])
    assert enumerate_cosets(big, 100) is None  # 2500 > cap


def test_order_by_addition():
    lat = _echelon_from_columns([[40]])
    assert order_by_addition(lat, [1], 100) == 40
    assert order_by_addition(lat, [8], 100) == 5
    assert order_by_addition(lat, [0], 100) == 1
    with pytest.raises(AssertionError):
        order_by_addition(lat, [1], 10)


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


@pytest.mark.parametrize("max_n", [None, "3", 2.5, 3.0, Fraction(3)])
def test_verify_sweep_rejects_a_non_int_max_n_before_forking(monkeypatch,
                                                             max_n):
    def no_fork():
        raise AssertionError("forked for a bad max_n")

    monkeypatch.setattr(verify_mod.os, "fork", no_fork)
    with pytest.raises(OutOfRange):
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


def test_an_exception_in_the_child_walk_reaches_the_caller(monkeypatch):
    def out_of_range(max_n):
        raise OutOfRange(f"no walk to {max_n}")

    monkeypatch.setattr(verify_mod, "check_image_stream", out_of_range)
    with pytest.raises(OutOfRange, match="^no walk to 6$"):
        verify_sweep(6)
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
            answer = ([(c.name, c.rows, c.failures)
                       for c in verify_mod.check_image_stream(max_n)], None)
            os.write(write_fd, marshal.dumps(answer)[:5])
            end()
        finally:
            os._exit(0)

    monkeypatch.setattr(verify_mod, "_walk_in_child", cut_walk)
    with pytest.raises(ChildProcessError,
                       match=f"sent 5 bytes and exited with status {status}$"):
        verify_sweep(6)
    _assert_no_child_left()


def test_a_table_fault_in_the_mapping_group_is_a_failure(monkeypatch):
    # the pipeline's OracleMismatch is recorded by the check, not raised
    monkeypatch.setattr(gauge, "_RHO_UNIT", Fraction(1, 6))
    result = verify_mod.check_mapping_group(4)
    assert not result.ok and result.rows == []
    assert result.failures == [
        "table-driven order 20 differs from (2n+1)!/3 at n=2"]


def test_an_exception_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    # the child would walk for a minute; the parent's own check raises at
    # once, and the sweep must kill the child rather than wait for it
    def broken():
        raise RuntimeError("parent check broke")

    monkeypatch.setattr(verify_mod, "check_image_stream",
                        lambda max_n: time.sleep(60))
    monkeypatch.setattr(verify_mod, "check_smith_random", broken)
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


def test_smith_forms_of_the_random_check_are_pinned():
    # a digest of U, D and V over the instances check_smith_random draws:
    # pivot selection is deterministic, so any change to the reduction that
    # alters a transform shows here
    rng = random.Random(_SEED)
    digest = hashlib.sha256()
    for _ in range(_SMITH_INSTANCES):
        u, d, v = smith_normal_form(_random_matrix(rng, 6, -20, 20))
        # each transform flattened row-major
        digest.update(repr(tuple(tuple(itertools.chain.from_iterable(m))
                                 for m in (u, d, v))).encode())
    assert digest.hexdigest() == (
        "ea1f22a856ee07cc0a32fb9f54d6eab31c40ea1f23ebfc8efe11250bb172661e")


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


def _negated(m):
    return [[-x for x in row] for row in m]


def _last_doubled(d):
    nonzero = [i for i in range(min(len(d), len(d[0]))) if d[i][i]]
    if nonzero:
        d[nonzero[-1]][nonzero[-1]] *= 2
    return d


def _doubled_at_k_one(real):
    return lambda n, k: real(n, k) * (2 if k == 1 else 1)


# (engine name as verify imported it, a wrong variant of the real one, the
# check that must catch it and its arguments)
_WRONG_ENGINES = [
    # U A V = D still holds, but D has a negative diagonal
    ("smith_normal_form",
     lambda real: lambda a: (lambda u, d, v: (_negated(u), _negated(d), v))(
         *real(a)),
     "check_smith_random", ()),
    # the last nonzero diagonal entry doubled: still a divisibility chain
    ("smith_normal_form",
     lambda real: lambda a: (lambda u, d, v: (u, _last_doubled(d), v))(
         *real(a)),
     "check_coset_oracle", ()),
    ("element_order_in_coker",
     lambda real: lambda a, v: real(a, v) + 1,
     "check_coset_oracle", ()),
    ("q2_mapping_invariant", _doubled_at_k_one, "check_separation", (20,)),
    ("q2_mapping_invariant", _doubled_at_k_one, "check_rank2_constants", ()),
    ("mapping_group_order",
     lambda real: lambda n: 2 * real(n),
     "check_mapping_group", (20,)),
    ("retractible",
     lambda real: lambda family, rank, p: not real(family, rank, p),
     "check_guards", (20,)),
    ("identity_samelson_p_part",
     lambda real: lambda n, p: p * real(n, p),
     "check_guards", (20,)),
    ("phi_image",
     lambda real: lambda n, backend="series": real(n, "printed"),
     "check_printed_discrepancy", ()),
]


@pytest.mark.parametrize("name, wrong, check, args", _WRONG_ENGINES,
                         ids=[f"{name}-{check}" for name, _, check, _
                              in _WRONG_ENGINES])
def test_every_check_fails_on_a_wrong_engine(monkeypatch, name, wrong, check,
                                             args):
    monkeypatch.setattr(verify_mod, name, wrong(getattr(verify_mod, name)))
    result = getattr(verify_mod, check)(*args)
    assert result.failures and not result.ok
    assert verify_sweep(20).status == "failed"
