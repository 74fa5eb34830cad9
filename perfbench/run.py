"""spgauge benchmark: one workload per fresh process, one CLI command per
operation, run in-process through spgauge.cli.main(argv).

    python3 perfbench/run.py --workload sweep|grid|queries --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  It times whole rounds of the workload's
operations until the next round would overrun --seconds (at least one
round), with stdout sent to a sink that keeps no copy of the output.  Times
are given at a reference host speed, measured beside the program by a
calibration loop (speed.py), because the host's speed can drift.  Then
it replays the operations once through the checking sink and compares every
row with independent arithmetic (oracle.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
rounds run with every layer's public functions wrapped (tracing.py) and the
metrics are the per-layer ones.  Results and traces are also written under
perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from sink import HashSink  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = (6, 5)  # fresh processes before and after the timed rounds
WARMUP_ARGV = ("order", "--n", "1")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(args):
    """Import the program from src/ and make the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "spgauge", "cli.py")):
        sys.exit(f"perfbench: no spgauge sources at {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import spgauge  # noqa: F401
    import spgauge.cli as cli
    return cli, workloads.build(args.workload, args.seed)


def run_op(cli, argv, sink) -> int:
    """One CLI command with stdout on `sink`; returns its exit code, or -1
    when it raised."""
    out, err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, HashSink()
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad usage with exit 2
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        sys.stdout, sys.stderr = out, err
        traceback.print_exc()
        return -1
    finally:
        sys.stdout, sys.stderr = out, err


def probe_setup(args, count: int) -> list[tuple[float, float, float]]:
    """Set-up time of `count` fresh processes (import + inputs), each with
    the start and end of its process on this process's clock."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append((float(done.stdout.split()[-1]), start, time.perf_counter()))
    return times


def measure(cli, ops, seconds, after_op=None, sampler=None):
    """Whole rounds of `ops` until the next round would overrun `seconds`.

    Returns one list per round of (seconds, exit code, digest, tail) per op,
    and the (start, end) of every op in order.  A round's wall time is the
    sum of its operations' times, so work done between operations (after_op)
    is not counted, nor is the time the sampler's handler took."""
    rounds, spans = [], []
    spent = 0.0
    while True:
        gc.collect()
        results = []
        for op in ops:
            sink = HashSink()
            paused = sampler.spent if sampler else 0.0
            start = time.perf_counter()
            rc = run_op(cli, op.argv, sink)
            end = time.perf_counter()
            took = end - start - ((sampler.spent - paused) if sampler else 0.0)
            results.append((took, rc, sink.digest(), sink.tail))
            spans.append((start, end))
            if after_op is not None:
                after_op()
        rounds.append(results)
        spent += sum(r[0] for r in results)
        typical = statistics.median(sum(r[0] for r in rnd) for rnd in rounds)
        if spent + typical > seconds:
            return rounds, spans


def check(cli, ops, rounds) -> list[str]:
    """Replay and check every operation that exited as expected (check.py);
    a failure of any command but the bad-input ones is an error."""
    import check as checks

    errors = []
    first = rounds[0]
    for i, op in enumerate(ops):
        cmd = " ".join(op.argv)
        digests = {rnd[i][2] for rnd in rounds}
        if len(digests) > 1:
            errors.append(f"{cmd}: output differs between rounds")
        if op.expect_rc == 0:
            # only the bad-input commands may fail and leave `correct` true
            errors += [f"{cmd}: exited {rc}"
                       for rc in sorted({rnd[i][1] for rnd in rounds}) if rc != 0]
        _, rc, digest, tail = first[i]
        if rc != op.expect_rc:
            continue  # counted in `failed`
        if op.expect_rc != 0:
            # a rejected input: the message goes to stderr, stdout stays empty
            if digest[1]:
                errors.append(f"{cmd}: exited {rc} but printed {digest[1]} bytes")
            continue
        if op.kind == "verify":
            errors += checks.check_verify(rc, tail)
            continue
        replay, errs = checks.check_op(op, lambda argv, sink: run_op(cli, argv, sink))
        errors += errs
        if not errs and replay != digest:
            errors.append(f"{cmd}: replayed output differs from timed output")
    errors += checks.certify_primes(
        op.params["p"] for op in ops if op.params.get("p", 0) > 1000)
    return errors


def end_to_end(rounds, factors, setups, peak_rss_kb):
    """The end-to-end metrics, times at reference speed: each time is
    multiplied by the speed factor measured around it."""
    flat = iter(factors)
    scaled = [[r[0] * next(flat) for r in rnd] for rnd in rounds]
    op_times = [t for rnd in scaled for t in rnd]
    raw_walls = [sum(r[0] for r in rnd) for rnd in rounds]
    return {
        "setup_s": (statistics.median(wall * f for wall, f in setups), "s"),
        "wall_s": (statistics.median(sum(rnd) for rnd in scaled), "s"),
        "op_p50_ms": (statistics.median(op_times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }, {"rounds": len(rounds), "op_samples": len(op_times),
        "setup_samples": len(setups),
        "raw_wall_s": round(statistics.median(raw_walls), 6),
        "raw_setup_s": round(statistics.median(wall for wall, _ in setups), 6),
        "speed_factor": round(statistics.median(factors), 4)}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, ops = set_up(args)
    if args.probe:
        print(f"{time.perf_counter() - T0:.9f}")
        return 0

    run_op(cli, WARMUP_ARGV, HashSink())
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        rounds, _ = measure(cli, ops, args.seconds, after_op=tracer.fold)
        tracer.uninstall()
        metrics = tracer.metrics(len(rounds))
        counts = {"rounds": len(rounds), "traced_wall_s": statistics.median(
            sum(r[0] for r in rnd) for rnd in rounds)}
    else:
        sampler = speed.Sampler()
        sampler.start()
        try:
            # probes on both sides of the rounds see more of the host's phases
            probes = probe_setup(args, SETUP_PROBES[0])
            rounds, spans = measure(cli, ops, args.seconds, sampler=sampler)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            probes += probe_setup(args, SETUP_PROBES[1])
        finally:
            sampler.stop()
        factors = [sampler.factor(start, end) for start, end in spans]
        setups = [(wall, sampler.factor(start, end)) for wall, start, end in probes]
        metrics, counts = end_to_end(rounds, factors, setups, peak_kb)

    errors = check(cli, ops, rounds)
    attempted = len(ops) * len(rounds)
    failed = sum(1 for rnd in rounds for op, r in zip(ops, rnd)
                 if r[1] != op.expect_rc)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" attempted={attempted} failed={failed}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        layers = {} if tracer is None else {
            name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                   "self_s": tracer.self_time[name]} for name in tracer.names}
        json.dump({**result, "counts": counts, "errors": errors, "layers": layers,
                   "ops": [{"argv": list(op.argv),
                            "seconds": [rnd[i][0] for rnd in rounds],
                            "exit": rounds[0][i][1]}
                           for i, op in enumerate(ops)]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
