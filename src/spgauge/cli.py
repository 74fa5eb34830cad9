"""Command-line front end.

Subcommands mirror the library pipelines: order and phi-gens for the image
computations, classify sp/spin for the p-local deciders, invariant and
retractible for the bundle invariants, and verify for the self-check sweep.
Output is a Report written as markdown (default), JSON, or CSV, and is
byte-stable across runs.  Exit codes: 0 success, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when the reader of stdout has gone.

A command that names a leaf (order, classify sp, ...) is parsed by that
leaf's parser alone, which prints the leaf's own help and errors.  Each
leaf's parser is built at the first command that names it and reused by
every later command in the process; argparse keeps no state of a parse on
the parser, and reads the help's width, stdout and stderr only when it
prints.  The whole argparse tree, registered from the same table of
leaves, is built for argv that names no leaf or that the leaf leaves
arguments over, and prints the top-level help, usage or error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from math import factorial

from .errors import OutOfRange, SpgaugeError
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
from .phi import BACKENDS, phi_image, phi_images
from .report import FORMATS, Product, Report


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, like a report, reaches a closed stdout
    (add_subparsers makes every subparser of the tree of this class)."""

    def print_help(self, file=None):
        # argparse drops an OSError from its own write of the help, and
        # --help raises SystemExit next; write and flush here, so that a
        # closed stdout reaches _main's broken-pipe handler, not exit
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def _add_format(p):
    p.add_argument("--format", choices=FORMATS, default="markdown",
                   help="output format (default markdown)")


def _order_arguments(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single rank")
    group.add_argument("--max-n", type=int, help="sweep ranks 1..max-n")
    _add_format(p)
    p.set_defaults(handler=_cmd_order)


def _phi_gens_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--backend", choices=BACKENDS, default="series")
    _add_format(p)
    p.set_defaults(handler=_cmd_phi_gens)


def _classify_sp_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--grid", action="store_true",
                   help="full verdict grid over k, l in [0, 4n(2n+1)]")
    _add_format(p)
    p.set_defaults(handler=_cmd_classify_sp)


def _classify_spin_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=int, choices=(1, 2), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_classify_spin)


def _invariant_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, action="append", required=True,
                   help="bundle integer; repeat for several")
    _add_format(p)
    p.set_defaults(handler=_cmd_invariant)


def _retractible_arguments(p):
    p.add_argument("--family", required=True,
                   choices=[f.value for f in LieFamily])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int,
                   help="rank (required for SU, Sp, SpinOdd)")
    _add_format(p)
    p.set_defaults(handler=_cmd_retractible)


def _verify_arguments(p):
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1,
                   help="kept for compatibility and echoed in the "
                        "report; changes nothing (the sweep always "
                        "forks one child for its image stream)")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)


# every leaf command by its path: its help and the builder that adds its
# arguments, in the order the help lists them
_COMMANDS = {
    ("order",): ("Samelson product orders 4n(2n+1) from the image pipeline",
                 _order_arguments),
    ("phi-gens",): ("image generators of the comparison map at rank n",
                    _phi_gens_arguments),
    ("classify", "sp"): ("Sp(n) gauge groups", _classify_sp_arguments),
    ("classify", "spin"): ("Spin(2n+epsilon) gauge groups",
                           _classify_spin_arguments),
    ("invariant",): ("bundle invariants (coarse, refined, quotient)",
                     _invariant_arguments),
    ("retractible",): ("p-local retractibility of the generating complex",
                       _retractible_arguments),
    ("verify",): ("run the acceptance property sweep", _verify_arguments),
}
# the help of each command that only holds leaves
_GROUPS = {"classify": "p-local gauge group classification verdicts"}


def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree: each leaf of _COMMANDS in its order, a group
    at its first leaf.  It is the reference the parity tests hold each leaf
    parser to, and it only prints help, usage and errors; an argparse that
    reads a leading -- as a separator (3.13.13, not 3.13.0) also parses
    `spgauge -- order --n 3` with it."""
    parser = _Parser(
        prog="spgauge",
        description="Exact invariants and p-local classification for "
                    "Sp(n) gauge groups over the 4-sphere.",
    )
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (text, arguments) in _COMMANDS.items():
        if path[:-1] not in subs:
            group = subs[()].add_parser(path[0], help=_GROUPS[path[0]])
            subs[path[:-1]] = group.add_subparsers(dest="target",
                                                   required=True)
        arguments(subs[path[:-1]].add_parser(path[-1], help=text))
    return parser


@functools.cache
def _leaf(path) -> _Parser:
    """The parser of the leaf command at path, whose prog is the one its
    subparser has in the tree; built once per process, at the first command
    that names it."""
    parser = _Parser(prog=" ".join(("spgauge", *path)))
    _COMMANDS[path][1](parser)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by its leaf command's parser alone, which prints that
    leaf's help and errors; the leaf's parser is built at its first command
    and reused by every later one.  When argv starts with no leaf's path, or
    the leaf leaves arguments over, the whole tree, the reference the parity
    tests hold each leaf to, parses it, and prints the top-level help, usage
    or unrecognized-arguments error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in _COMMANDS:
            args, rest = _leaf(path).parse_known_args(argv[len(path):])
            if not rest:
                return args
    return _build_parser().parse_args(argv)


def _pinned(result) -> int | str:
    order = result.pinned_order
    return "unpinned" if order is None else order


def _cmd_order(args) -> Report:
    # the image's pinned order, which verify alone holds to the closed
    # form; phi_image and phi_images refuse a rank below 1, or past the
    # factorial's range, at the call
    if args.n is not None:
        images = [phi_image(args.n)]
    else:
        images = phi_images(args.max_n)
    rows = [{"n": r.n, "samelson_order": _pinned(r)} for r in images]
    params = ({"n": args.n} if args.n is not None
              else {"max_n": args.max_n})
    return Report("order", params, rows)


def _cmd_phi_gens(args) -> Report:
    result = phi_image(args.n, args.backend)
    pinned = _pinned(result)
    rows = []
    names = ["zeta1"] + [f"xi{k}" for k in range(2, args.n + 1)]
    # every tabulated top coefficient is positive, so it is the image
    # generator over (2n+1)!; phi_image has refused, with
    # require_factorial_rank, an n whose (2n+1)! is out of range
    scale = factorial(2 * args.n + 1)
    for name, gen in zip(names, result.upper_gens):
        rows.append({
            "n": args.n,
            "generator": name,
            "top_coeff": Fraction(gen, scale),
            "image_gen": gen,
            "lower_gen": result.lower_gen,
            "pinned_order": pinned,
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
            raise OutOfRange("--grid does not take --k/--l")
        return _classify_grid(args.n, args.p)
    if args.k is None or args.l is None:
        raise OutOfRange("classify sp needs --k and --l (or --grid)")
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
    # (2n+1)!/3, which verify holds to c(n)B, c(n) = (2n-1)!/6
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
    # verify_sweep refuses a bad max_n before it forks; no library sees --jobs
    if args.jobs < 1:
        raise OutOfRange("--jobs must be at least 1")
    # the sweep alone loads verify, and through it oracles and series
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
    try:
        args = _parse_args(argv)
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
