"""Tracing wraps every module's reference and computes self time."""

import io
import time
from contextlib import redirect_stdout

import spgauge.arith
import spgauge.cli
import spgauge.series
import tracing


def test_wrappers_reach_imported_names_and_are_removed():
    orig = spgauge.arith.surjections
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spgauge.series.surjections is not orig
        assert spgauge.series.surjections is spgauge.arith.surjections
        with redirect_stdout(io.StringIO()):
            assert spgauge.cli.main(["order", "--n", "3"]) == 0
        assert tracer.fold() > 0
    finally:
        tracer.uninstall()
    assert spgauge.series.surjections is orig
    m = tracer.metrics(rounds=1)
    assert m["arith.surjections.calls"][0] == 2          # k = 2, 3
    assert m["phi.samelson_order.calls"][0] == 1
    assert m["cli.main.calls"][0] == 1
    assert m["report.render.calls"][0] == 1
    assert m["report.render.bytes"][0] > 0
    for name, _, _ in tracing.FUNCTIONS:
        assert 0 <= tracer.self_time[name] <= tracer.total[name] + 1e-9


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tracer._wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    tracer._wrap("outer", outer)()
    assert tracer.fold() == 3
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_time["outer"] < 0.03
    assert abs(tracer.total["outer"] - tracer.self_time["outer"]
               - tracer.total["inner"]) < 1e-9
