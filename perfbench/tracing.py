"""Per-layer tracing from outside the package.

install() replaces each traced function with a wrapper that records a span
(name, start, end, parent) in flat in-memory arrays.  A function imported
by name into other modules (series holds its own reference to
arith.surjections, cli to gauge.decide_local, ...) is replaced in every
spgauge module that holds it, so internal calls are traced too.  fold()
turns the spans of one operation into per-function call counts, total time
and self time (duration minus the time covered by direct child spans) and
frees them, so memory is bounded by the largest single operation.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

# (metric prefix, module, attribute); "Class.method" patches the class.
FUNCTIONS = (
    ("arith.surjections", "arith", "surjections"),
    ("series.top_coeff", "series", "top_coeff"),
    ("chdata.phi_generator_tops", "chdata", "phi_generator_tops"),
    ("phi.phi_image", "phi", "phi_image"),
    ("phi.samelson_order", "phi", "samelson_order"),
    ("lattice.smith_normal_form", "lattice", "smith_normal_form"),
    ("lattice.element_order_in_coker", "lattice", "element_order_in_coker"),
    ("arith.is_prime", "arith", "is_prime"),
    ("arith.p_part", "arith", "p_part"),
    ("gauge.decide_local", "gauge", "decide_local"),
    ("gauge.decide_spin", "gauge", "decide_spin"),
    ("report.render", "report", "Report.render"),
    ("cli.main", "cli", "main"),
    ("series.series_mul", "series", "TruncatedSeries.__mul__"),
    ("lattice.matrix_mul", "lattice", "IntMatrix.mul"),
    ("lattice.det", "lattice", "IntMatrix.det"),
    ("gauge.q2_mapping_invariant", "gauge", "q2_mapping_invariant"),
    ("gauge.im_partial_report", "gauge", "im_partial_report"),
    ("arith.frac_gcd", "arith", "frac_gcd"),
)
VERIFY_CHECKS = (
    "check_samelson_orders", "check_divisibility", "check_printed_discrepancy",
    "check_mapping_group", "check_separation", "check_rank2_constants",
    "check_two_path_orders", "check_smith_random", "check_coset_oracle",
    "check_series_identity", "check_guards",
)


# distinct-argument keys for the waste ratios (every caller passes these
# arguments positionally)
KEYS = {
    "arith.surjections": lambda args: args,
    "phi.phi_image": lambda args: args[0],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("q")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.stack = [-1]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in KEYS}
        self.render_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.total[name] = 0.0
        self.self_time[name] = 0.0
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self.stack, time.perf_counter
        key, seen = KEYS.get(name), self.distinct.get(name)
        sized = name == "report.render"

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if key is not None:
                seen.add(key(args))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sized:
                self.render_bytes += (len(result) if result.isascii()
                                      else len(result.encode()))
            return result

        return traced

    def _patch(self, target, attr: str, new) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def install(self) -> None:
        mods = {name[len("spgauge."):]: mod for name, mod in list(sys.modules.items())
                if name.startswith("spgauge.")}
        targets = list(FUNCTIONS) + [
            (f"verify.{c}", "verify", c) for c in VERIFY_CHECKS]
        for name, modname, attr in targets:
            mod = mods.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue  # renamed or removed: reported as zero
            new = self._wrap(name, orig)
            for holder in [sys.modules["spgauge"], *mods.values()]:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patch(holder, key, new)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    # -- aggregation -------------------------------------------------------

    def fold(self) -> int:
        """Fold the recorded spans into the per-function totals and free
        them.  Returns the number of spans folded."""
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.name_ids
        count = len(starts)
        child = array("d", bytes(8 * count))
        for i in range(count):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        names = self.names
        for i in range(count):
            name = names[ids[i]]
            dur = ends[i] - starts[i]
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
        for arr in (starts, ends, parents, ids):
            del arr[:]
        return count

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one round of the workload."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls.get(name, 0) // rounds, "count")
            out[f"{name}.self_s"] = (self.self_time.get(name, 0.0) / rounds, "s")
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.total_s"] = (
                self.total.get(f"verify.{check}", 0.0) / rounds, "s")
        out["report.render.bytes"] = (self.render_bytes // rounds, "B")
        verdicts = (self.calls.get("gauge.decide_local", 0)
                    + self.calls.get("gauge.decide_spin", 0)) // rounds
        distinct_mk = len(self.distinct["arith.surjections"])
        distinct_n = len(self.distinct["phi.phi_image"])
        out["gauge.verdicts"] = (verdicts, "count")
        out["arith.is_prime.calls_per_verdict"] = (
            _ratio(out["arith.is_prime.calls"][0], verdicts), "calls/verdict")
        out["arith.surjections.distinct"] = (distinct_mk, "count")
        out["arith.surjections.calls_per_distinct"] = (
            _ratio(out["arith.surjections.calls"][0], distinct_mk), "calls/distinct")
        out["phi.phi_image.distinct_ranks"] = (distinct_n, "count")
        out["phi.phi_image.calls_per_rank"] = (
            _ratio(out["phi.phi_image.calls"][0], distinct_n), "calls/rank")
        return out


def _ratio(num: float, base: int) -> float:
    # a ratio over an empty base is reported as 0 (the layer was idle)
    return num / base if base else 0.0
