"""Unit tests for the self-check sweep and its brute-force oracles."""

import dataclasses

import pytest

import spgauge.verify as verify_mod
from spgauge.lattice import IntMatrix
from spgauge.verify import (
    EchelonLattice,
    _divisors,
    _echelon_from_columns,
    enumerate_cosets,
    order_by_addition,
    verify_sweep,
)


def test_echelon_insert_and_membership():
    lat = EchelonLattice(2)
    lat.insert([2, 0])
    lat.insert([0, 3])
    assert lat.pivots() == {0: 2, 1: 3}
    assert lat.contains([4, -3])
    assert not lat.contains([1, 0])
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
    lat = _echelon_from_columns(IntMatrix.from_rows([[2, 0], [0, 3]]))
    cosets = enumerate_cosets(lat, 100)
    assert cosets is not None
    assert len(cosets) == 6
    assert set(cosets) == {(a, b) for a in range(2) for b in range(3)}


def test_enumerate_cosets_infinite_and_capped():
    thin = _echelon_from_columns(IntMatrix.from_rows([[2], [0]]))
    assert enumerate_cosets(thin, 100) is None  # free direction left over
    big = _echelon_from_columns(IntMatrix.from_rows([[50, 0], [0, 50]]))
    assert enumerate_cosets(big, 100) is None  # 2500 > cap


def test_order_by_addition():
    lat = _echelon_from_columns(IntMatrix.from_rows([[40]]))
    assert order_by_addition(lat, [1], 100) == 40
    assert order_by_addition(lat, [8], 100) == 5
    assert order_by_addition(lat, [0], 100) == 1
    with pytest.raises(AssertionError):
        order_by_addition(lat, [1], 10)


def test_divisors():
    assert _divisors(1) == [1]
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(49) == [1, 7, 49]


def test_verify_sweep_minimal_scale():
    report = verify_sweep(2)
    assert report.status == "ok"
    assert report.command == "verify"
    # the rank-2 anchor row is present
    assert {"check": "samelson-orders", "n": "2", "samelson_order": "40"} \
        in report.rows


def test_verify_sweep_includes_discrepancy_row_from_three():
    report = verify_sweep(3)
    assert report.status == "ok"
    rows = [r for r in report.rows if r.get("check") == "printed-backend-discrepancy"]
    assert len(rows) == 1
    row = rows[0]
    assert (row["n"], row["k"]) == ("3", "2")
    assert row["scaled_coeff"] == "150"
    assert row["modulus"] == "84"
    assert row["divisible"] == "false"
    assert row["printed_pinned"] == "false"
    assert row["series_order"] == "84"


def test_verify_sweep_rejects_tiny_max_n():
    with pytest.raises(ValueError):
        verify_sweep(1)


def test_verify_sweep_parallel_matches_serial():
    serial = verify_sweep(4, jobs=1)
    parallel = verify_sweep(4, jobs=3)
    # parameters record the worker count; everything else is identical
    assert serial.rows == parallel.rows
    assert serial.failures == parallel.failures


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
    result = verify_mod.check_divisibility(6)
    assert result.rows[0]["all_divisible"] == "false"
    assert len(result.failures) == 1
    assert result.failures[0].startswith(
        "n=5 k=3: generator 1996940 differs from the surjection oracle")
