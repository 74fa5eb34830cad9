"""The host speed sampler: it samples inside a long operation, its own time
can be taken out, and a factor averages the samples around an interval."""

import time

import speed


def test_factor_averages_the_window():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_S
    for at, took in ((0.0, ref), (1.0, ref / 2), (2.0, ref / 4), (9.0, ref)):
        sampler.at.append(at)
        sampler.took.append(took)
    # the samples within WINDOW (0.5 s) of [1.0, 1.5] are those at 1.0 and
    # 2.0, where the loop ran at 2 and 4 times the reference speed
    assert sampler.factor(1.0, 1.5) == (2 + 4) / 2
    assert sampler.factor(0.0, 2.0) == (1 + 2 + 4) / 3
    # no sample in the window: the nearest one counts
    assert sampler.factor(6.0, 6.1) == 1.0
    assert sampler.factor(3.0, 3.1) == 4.0
    assert sampler.factor(20.0, 21.0) == 1.0


def test_sampler_ticks_inside_a_long_call():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.at) >= 4
    assert 0 < sampler.spent < 0.4
    assert all(t > 0 for t in sampler.took)
