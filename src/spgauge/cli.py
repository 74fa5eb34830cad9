"""Command-line front end.

Subcommands mirror the library pipelines: order and phi-gens for the image
computations, classify sp/spin for the p-local deciders, invariant and
retractible for the bundle invariants, and verify for the self-check sweep.
Output is a Report written as markdown (default), JSON, or CSV, and is
byte-stable across runs.  Exit codes: 0 success, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import factorial

from .errors import SpgaugeError
from .gauge import (
    LieFamily,
    decide_local,
    decide_spin,
    im_partial_order,
    local_partition,
    mapping_group_order,
    q2_mapping_invariant,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from .phi import (
    BACKENDS,
    checked_order,
    phi_image,
    phi_images,
    samelson_order,
)
from .report import FORMATS, Product, Report

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops an OSError from its own write of the help, and
        # --help raises SystemExit next; write and flush here, so that a
        # closed stdout reaches _main's broken-pipe handler, not exit
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spgauge",
        description="Exact invariants and p-local classification for "
                    "Sp(n) gauge groups over the 4-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="markdown",
                       help="output format (default markdown)")

    p_order = sub.add_parser(
        "order", help="Samelson product orders 4n(2n+1) from the image pipeline")
    group = p_order.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single rank")
    group.add_argument("--max-n", type=int, help="sweep ranks 1..max-n")
    add_format(p_order)
    p_order.set_defaults(handler=_cmd_order)

    p_gens = sub.add_parser(
        "phi-gens", help="image generators of the comparison map at rank n")
    p_gens.add_argument("--n", type=int, required=True)
    p_gens.add_argument("--backend", choices=BACKENDS, default="series")
    add_format(p_gens)
    p_gens.set_defaults(handler=_cmd_phi_gens)

    p_classify = sub.add_parser(
        "classify", help="p-local gauge group classification verdicts")
    classify_sub = p_classify.add_subparsers(dest="target", required=True)

    p_sp = classify_sub.add_parser("sp", help="Sp(n) gauge groups")
    p_sp.add_argument("--n", type=int, required=True)
    p_sp.add_argument("--p", type=int, required=True)
    p_sp.add_argument("--k", type=int)
    p_sp.add_argument("--l", type=int)
    p_sp.add_argument("--grid", action="store_true",
                      help="full verdict grid over k, l in [0, 4n(2n+1)]")
    add_format(p_sp)
    p_sp.set_defaults(handler=_cmd_classify_sp)

    p_spin = classify_sub.add_parser("spin", help="Spin(2n+epsilon) gauge groups")
    p_spin.add_argument("--n", type=int, required=True)
    p_spin.add_argument("--epsilon", type=int, choices=(1, 2), required=True)
    p_spin.add_argument("--k", type=int, required=True)
    p_spin.add_argument("--l", type=int, required=True)
    p_spin.add_argument("--p", type=int, required=True)
    add_format(p_spin)
    p_spin.set_defaults(handler=_cmd_classify_spin)

    p_inv = sub.add_parser(
        "invariant", help="bundle invariants (coarse, refined, quotient)")
    p_inv.add_argument("--n", type=int, required=True)
    p_inv.add_argument("--k", type=int, action="append", required=True,
                       help="bundle integer; repeat for several")
    add_format(p_inv)
    p_inv.set_defaults(handler=_cmd_invariant)

    p_ret = sub.add_parser(
        "retractible", help="p-local retractibility of the generating complex")
    p_ret.add_argument("--family", required=True,
                       choices=[f.value for f in LieFamily])
    p_ret.add_argument("--p", type=int, required=True)
    p_ret.add_argument("--n", type=int,
                       help="rank (required for SU, Sp, SpinOdd)")
    add_format(p_ret)
    p_ret.set_defaults(handler=_cmd_retractible)

    p_verify = sub.add_parser(
        "verify", help="run the acceptance property sweep")
    p_verify.add_argument("--max-n", type=int, default=20)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="kept for compatibility and echoed in the "
                               "report; changes nothing (the sweep always "
                               "forks one child for its image stream)")
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_order(args) -> Report:
    # samelson_order and phi_images refuse a rank below 1 at the call
    if args.n is not None:
        orders = [(args.n, samelson_order(args.n))]
    else:
        orders = ((r.n, checked_order(r)) for r in phi_images(args.max_n))
    rows = [{"n": n, "samelson_order": order} for n, order in orders]
    params = ({"n": args.n} if args.n is not None
              else {"max_n": args.max_n})
    return Report("order", params, rows)


def _cmd_phi_gens(args) -> Report:
    result = phi_image(args.n, args.backend)
    pinned = result.pinned_order
    rows = []
    names = ["zeta1"] + [f"xi{k}" for k in range(2, args.n + 1)]
    # every tabulated top coefficient is positive, so it is the image
    # generator over (2n+1)!
    scale = factorial(2 * args.n + 1)
    for name, gen in zip(names, result.upper_gens):
        rows.append({
            "n": args.n,
            "generator": name,
            "top_coeff": Fraction(gen, scale),
            "image_gen": gen,
            "lower_gen": result.lower_gen,
            "pinned_order": "unpinned" if pinned is None else pinned,
        })
    return Report("phi-gens", {"n": args.n, "backend": args.backend}, rows)


def _verdict_row(extra: dict, verdict) -> dict:
    k, l = verdict.invariant_values
    return {**extra, "outcome": verdict.outcome.value, "invariant_k": k,
            "invariant_l": l, "guards_passed": verdict.guards_passed()}


def _classify_grid(n: int, p: int) -> Report:
    """The verdict grid over k, l in [0, B], B = 4n(2n+1), k-major: one
    report.Product of each k with its class, each l with its, and the
    verdict cells of each pair of classes, all from gauge.local_partition,
    which checks n and p before any row is made."""
    classes, verdicts = local_partition(n, p)
    cells = {pair: _verdict_row({}, v) for pair, v in verdicts.items()}
    grid = Product([({"k": k}, c) for k, c in enumerate(classes)],
                   [({"l": l}, c) for l, c in enumerate(classes)], cells)
    params = {"n": n, "p": p, "grid": f"0..{len(classes) - 1}"}
    return Report("classify-sp", params, [grid])


def _cmd_classify_sp(args) -> Report:
    if args.grid:
        if args.k is not None or args.l is not None:
            raise SpgaugeError("--grid does not take --k/--l")
        return _classify_grid(args.n, args.p)
    if args.k is None or args.l is None:
        raise SpgaugeError("classify sp needs --k and --l (or --grid)")
    verdict = decide_local(args.n, args.k, args.l, args.p)
    params = {"n": args.n, "k": args.k, "l": args.l, "p": args.p}
    return Report("classify-sp", params, [_verdict_row(params, verdict)])


def _cmd_classify_spin(args) -> Report:
    m = 2 * args.n + args.epsilon
    verdict = decide_spin(m, args.k, args.l, args.p)
    params = {"n": args.n, "epsilon": args.epsilon, "k": args.k, "l": args.l,
              "p": args.p}
    row = _verdict_row({"m": m, **params}, verdict)
    return Report("classify-spin", params, [row])


def _cmd_invariant(args) -> Report:
    rows = []
    even = args.n >= 2 and args.n % 2 == 0
    # (2n+1)!/3, checked in gauge against its table-driven value
    group = mapping_group_order(args.n) if even else None
    for k in args.k:
        refined = refined_invariant(args.n, k)
        row = {"n": args.n, "k": k,
               "sutherland": sutherland_invariant(args.n, k), "refined": refined}
        if even:
            # refined is gcd(k, 4n(2n+1)), the form the statement advertises,
            # and never 0
            q2 = q2_mapping_invariant(args.n, k)
            row["q2_order"] = q2
            row["q2_gcd_form"] = refined
            row["q2_matches_gcd_form"] = q2 == refined
            row["boundary_image_order"] = im_partial_order(args.n, k)
            row["boundary_factorial_form"] = group // refined
        rows.append(row)
    return Report("invariant",
                  {"n": args.n, "k": ",".join(map(str, args.k))}, rows)


def _cmd_retractible(args) -> Report:
    family = LieFamily(args.family)
    value = retractible(family, args.n, args.p)
    row = {"family": family.value, "p": args.p, "retractible": value}
    params = {"family": family.value, "p": args.p}
    if args.n is not None:
        row["n"] = params["n"] = args.n
    return Report("retractible", params, [row])


def _cmd_verify(args) -> Report:
    # verify_sweep refuses a max_n below 2; no library function sees --jobs
    if args.jobs < 1:
        raise SpgaugeError("--jobs must be at least 1")
    # the sweep alone loads verify, and through it lattice and series
    from .verify import verify_sweep

    report = verify_sweep(args.max_n)
    report.parameters["jobs"] = args.jobs
    return report


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        return _main(argv)
    # exact answers outgrow the default 4,300-digit int-to-str limit; lift
    # it for this call only, so the caller's limit comes back however main
    # ends
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            report = args.handler(args)
        except SpgaugeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report.write(args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # end as a writer killed by SIGPIPE does, quietly; stdout goes to
        # /dev/null so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0 if report.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
