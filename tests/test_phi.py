"""Unit tests for the image pipeline and the Samelson-product orders."""

import random
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import spgauge.phi as phi_mod
from spgauge.arith import closed_form_order
from spgauge.errors import GuardFailed, OracleMismatch, OutOfRange
from spgauge.gauge import identity_samelson_p_part
from spgauge.lattice import element_order_in_coker, smith_normal_form
from spgauge.oracles import matrix_product, surjection_counts
from spgauge.phi import (PhiResult, checked_order, phi_image, phi_images,
                         samelson_order)
from spgauge.verify import _SEED, _random_matrix


def test_closed_form_anchors():
    assert closed_form_order(1) == 12
    assert closed_form_order(2) == 40
    assert closed_form_order(3) == 84
    assert closed_form_order(4) == 144


def test_phi_image_rank3_series():
    res = phi_image(3, "series")
    assert res.lower_gen == 84
    assert res.upper_gens == (84, 1260, 6300)
    assert res.pinned_order == 84
    assert res.backend == "series"


def test_phi_image_rank1_and_rank2():
    assert phi_image(1).upper_gens == (12,)
    assert phi_image(1).pinned_order == 12
    res = phi_image(2)
    assert res.lower_gen == 40
    assert res.pinned_order == 40


def test_phi_image_printed_rank3_left_unpinned():
    res = phi_image(3, "printed")
    assert res.upper_gens == (84, 150, 15120)
    assert res.lower_gen == 84
    # gcd(84, 150, 15120) = 6 < 84: the two bounds leave a gap
    assert res.pinned_order is None


def test_phi_result_reads_its_claims_off_its_generators():
    res = PhiResult(2, "printed", (40, 120))
    assert (res.lower_gen, res.pinned_order) == (40, 40)
    # an anchor above the gcd leaves the order unpinned, whatever the backend
    for backend in ("series", "printed"):
        res = PhiResult(2, backend, (40, 60))
        assert (res.lower_gen, res.pinned_order) == (40, None)
    with pytest.raises(OracleMismatch):
        checked_order(PhiResult(2, "series", (40, 60)))
    assert checked_order(PhiResult(2, "series", (40, 120))) == 40


def test_a_phi_result_holds_a_known_backend():
    for backend in ("nonsense", "Series", "", None, 0):
        with pytest.raises(OutOfRange):
            PhiResult(2, backend, (40, 120))


def test_checked_order_reads_only_series_backend_data():
    # a printed record that pins the closed form still reads no order
    for gens in ((40, 120), (40, 60)):
        with pytest.raises(OutOfRange):
            checked_order(PhiResult(2, "printed", gens))


@pytest.mark.parametrize("n, gens", [
    (2, (40.0, 120)), (2, (40, Fraction(120))), (2, (40, 120.0)),
    (2, (40, "120")), (2, ()), (0, (40, 120)), (-1, (12,)), (2.0, (40, 120)),
    (Fraction(2), (40, 120))])
def test_phi_result_refuses_what_is_not_an_image(n, gens):
    with pytest.raises(OutOfRange):
        PhiResult(n, "series", gens)


def test_phi_image_rejects_bad_rank():
    for n in (0, -1):
        for backend in ("series", "printed"):
            with pytest.raises(OutOfRange):
                phi_image(n, backend)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_image_rejects_unknown_backend_at_every_rank(n):
    # checked up front: the printed branch reads no coefficient at n = 1
    with pytest.raises(OutOfRange):
        phi_image(n, "nonsense")


def test_printed_backend_anchor_is_the_closed_form():
    # the doubled-line anchor (2n+1)! * 2/(2n-1)! does not depend on the
    # backend; only the k >= 2 generators do
    assert phi_image(1, "printed").upper_gens == (12,)
    for n in (1, 2, 3):
        res = phi_image(n, "printed")
        anchor = factorial(2 * n + 1) * 2 // factorial(2 * n - 1)
        assert res.lower_gen == res.upper_gens[0] == anchor
        assert anchor == closed_form_order(n) == phi_image(n).lower_gen


def test_samelson_order_anchors():
    assert samelson_order(1) == 12
    assert samelson_order(2) == 40
    assert samelson_order(3) == 84
    assert samelson_order(10) == 840


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_samelson_order_matches_closed_form(n):
    assert samelson_order(n) == 4 * n * (2 * n + 1)


def test_upper_gens_all_multiples_of_order():
    for n in range(1, 25):
        res = phi_image(n)
        assert all(g % res.pinned_order == 0 for g in res.upper_gens)
        assert res.upper_gens[0] == res.lower_gen


def test_identity_p_part_values():
    assert identity_samelson_p_part(2, 5) == 5
    assert identity_samelson_p_part(1, 2) == 4
    assert identity_samelson_p_part(2, 3) == 1
    assert identity_samelson_p_part(3, 7) == 7
    assert identity_samelson_p_part(3, 5) == 1


def test_identity_p_part_guard():
    # (p-1)^2 + 1 < 2n refuses: p = 2 only reaches rank 1, p = 3 rank 2
    with pytest.raises(GuardFailed):
        identity_samelson_p_part(2, 2)
    with pytest.raises(GuardFailed):
        identity_samelson_p_part(3, 3)
    with pytest.raises(GuardFailed):
        identity_samelson_p_part(10, 3)
    assert identity_samelson_p_part(8, 5) == 1  # 17 >= 16 passes
    with pytest.raises(GuardFailed):
        identity_samelson_p_part(9, 5)  # 17 < 18 refuses


@pytest.mark.parametrize("n", [0, -1, -8])
def test_identity_p_part_rejects_nonpositive_rank(n):
    with pytest.raises(OutOfRange):
        identity_samelson_p_part(n, 3)


def test_identity_p_part_rejects_composite():
    with pytest.raises(OutOfRange, match="^6 is not prime$"):
        identity_samelson_p_part(2, 6)
    # primality is checked before the guard
    with pytest.raises(OutOfRange, match="^9 is not prime$"):
        identity_samelson_p_part(100, 9)


def _oracle_gens(n):
    scale = 2 * n * (2 * n + 1)
    counts = surjection_counts(2 * n - 1, n)
    return (2 * scale,) + tuple(scale * counts[k] for k in range(2, n + 1))


def test_stream_matches_inclusion_exclusion_oracle():
    for n, res in enumerate(phi_images(40), 1):
        assert res.n == n
        assert res.backend == "series"
        assert res.upper_gens == _oracle_gens(n)
        assert res.lower_gen == closed_form_order(n)
        assert res.pinned_order == closed_form_order(n)


@pytest.mark.parametrize("n", [57, 200])
def test_stream_matches_oracle_at_large_rank(n):
    *_, res = phi_images(n)
    assert res.n == n
    assert res.upper_gens == _oracle_gens(n)


def test_stream_prefixes_agree():
    # the row is cut at k = max_n, so a shorter stream must not drift
    long = list(phi_images(30))
    for max_n in (1, 2, 3, 7, 30):
        assert list(phi_images(max_n)) == long[:max_n]


@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 7, 30])
def test_kept_surjection_rows_stay_as_yielded(max_n):
    # advancing the stream must not change a row it has already yielded
    rows = list(phi_mod._surjection_rows(max_n))
    assert rows == [surjection_counts(2 * n - 1, min(2 * n - 1, max_n))
                    for n in range(1, max_n + 1)]


@pytest.mark.parametrize("max_n", [0, -3])
def test_stream_of_nothing_is_rejected(max_n):
    # raised at the call, not at the first item
    with pytest.raises(OutOfRange):
        phi_images(max_n)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 57])
def test_phi_image_is_the_nth_stream_item(n):
    assert phi_image(n) == next(islice(phi_images(n), n - 1, None))
    assert phi_image(n, "series") == phi_image(n)


@pytest.mark.parametrize("n", [2, 30])
def test_phi_image_builds_only_its_own_result(monkeypatch, n):
    built = []
    real = phi_mod.PhiResult

    def counted(rank, backend, gens):
        built.append(rank)
        return real(rank, backend, gens)

    monkeypatch.setattr(phi_mod, "PhiResult", counted)
    assert phi_image(n).n == n
    assert built == [n]


def _order_from_full_smith_form(a, vec):
    u, d, _ = smith_normal_form(a)
    w = [row[0] for row in matrix_product(u, [[x] for x in vec])]
    diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
    order = 1
    for i, wi in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if wi != 0:
                return None
        else:
            order = lcm(order, di // gcd(di, wi))
    return order


def test_coker_order_without_v_on_image_rows():
    for res in phi_images(40):
        row = [list(res.upper_gens)]
        assert element_order_in_coker(row, [1]) == \
            _order_from_full_smith_form(row, [1])


def test_coker_order_without_v_on_random_matrices():
    # the matrices check_smith_random draws, each with random vectors
    rng = random.Random(_SEED)
    vectors = random.Random(_SEED + 2)
    for _ in range(1000):
        a = _random_matrix(rng, 6, -20, 20)
        for _ in range(2):
            vec = [vectors.randint(-30, 30) for _ in range(len(a))]
            assert element_order_in_coker(a, vec) == \
                _order_from_full_smith_form(a, vec)
