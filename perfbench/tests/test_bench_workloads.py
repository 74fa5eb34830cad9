"""Inputs are a pure function of the seed, with a seed-independent shape."""

from collections import Counter

import workloads


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)


def test_every_seed_has_the_same_shape():
    shapes = {tuple(sorted(Counter(op.kind for op in workloads.build("queries", s)).items()))
              for s in range(5)}
    assert len(shapes) == 1
    assert workloads.build("queries", 1) != workloads.build("queries", 2)


def test_bad_input_commands_are_fixed_and_last():
    ops = workloads.build("queries", 3)
    assert tuple(op.argv for op in ops[-3:]) == workloads.BAD_INPUT
    assert all(op.expect_rc == 2 for op in ops[-3:])
    assert all(op.expect_rc == 0 for op in ops[:-3])


def test_large_primes_have_ten_to_thirteen_digits():
    ops = workloads.build("queries", 11)
    big = [op.params["p"] for op in ops if op.params.get("p", 0) > 1000]
    assert len(big) == 24
    assert {len(str(p)) for p in big} == {10, 11, 12, 13}
