"""Benchmark of the embedfar package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {torus,queries} --seed N \
        --seconds S --trace {0,1}

The package is imported from ./src of the checkout; the run fails without
printing a result when it is missing.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-module metrics with --trace 1.
The line before it holds the machine facts and run details, which are also
written with the spans of the traced run to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from statistics import mean, median

from layers import UNITS, Tracer
from machine import machine_facts
from stats import result_line, round_tail_ms, tail_label, tail_per_mille

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(".perfbench")

# name, unit, better, bound (share of the parent's median).  A small shared
# machine alternates between fast and slow phases lasting seconds to minutes
# (about 32 and 55 ms per torus sweep), in thread CPU time as much as in wall
# time; the timing bounds are the largest allowed, to leave room for that.
# Round times and evaluation throughput are therefore means over the whole
# run, which move with the share of time spent in each phase, rather than
# medians, which jump from one phase to the other: over ten runs of one
# commit the median torus sweep latency spread 0.17 where the mean throughput
# spread 0.11.  The median is recorded with the run details but not bounded.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("eval_points_per_s", "1/s", "higher", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("max_rel_error", "ratio", "lower", 0.1),
    ("e_in", "ratio", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("torus", "queries"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import embedfar from ./src of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "embedfar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no embedfar sources under {src}")
    sys.path.insert(0, str(src))
    import embedfar

    if Path(embedfar.__file__).resolve().parent != src / "embedfar":
        raise SystemExit(f"perfbench: embedfar imported from {embedfar.__file__}")
    return src / "embedfar"


def source_digest(package_dir):
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def extra_setups(workload, tally, record):
    """workload.setups_between set-ups whose times join record.setup, so
    that setup_s is a median over samples from the whole run."""
    from workloads import OperationFailed

    for _ in range(workload.setups_between):
        try:
            record.setup.append(workload.setup(tally)[0])
        except OperationFailed:
            pass


def run_rounds(workload, tally, samples, seconds, trace, tracers):
    """Rounds until the next one would end past `seconds`.  With tracing,
    untraced and traced rounds alternate and at least one of each runs;
    without, extra set-ups run before the first round and after each one.
    Each round's operation latencies give one tail, at the percentile fixed
    by the operations a round is meant to have."""
    from workloads import OperationFailed

    per_mille = tail_per_mille(workload.ops_per_round)
    if not trace:
        extra_setups(workload, tally, samples["untraced"])
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        kind = "traced" if traced else "untraced"
        record = samples[kind]
        before = len(record.ops)
        round_start = time.perf_counter()
        try:
            if traced:
                tracer = Tracer(run_id=f"{workload.name}-{rounds}")
                with tracer:
                    workload.round(tally, record)
                tracers.append(tracer)
            else:
                workload.round(tally, record)
        except OperationFailed:
            pass  # counted where it was raised
        except Exception as exc:  # a failed round must not end the run
            tally.fail(f"{kind} round {rounds}", exc)
        if len(record.ops) > before:
            record.tails.append(round_tail_ms(record.ops[before:], per_mille))
        rounds += 1
        last = time.perf_counter() - round_start
        if not trace:
            extra_setups(workload, tally, record)
        elapsed = time.perf_counter() - start
        if rounds >= (2 if trace else 1) and elapsed + last > seconds:
            return rounds, tail_label(per_mille)


def end_to_end_metrics(tally, samples, tail):
    values = {
        "wall_s": mean(samples.walls),
        "setup_s": median(samples.setup),
        "eval_points_per_s": samples.points / samples.eval_s,
        "op_tail_ms": median(samples.tails),
        "max_rel_error": tally.max_rel_error,
        "e_in": max(tally.e_in),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"op_p50_ms": median(samples.ops) * 1e3, "op_samples": len(samples.ops),
               "op_tail_percentile": tail, "op_tail_ms_per_round": samples.tails,
               "setup_s_samples": samples.setup, "wall_s_samples": samples.walls,
               "max_error_ratio": tally.max_ratio}
    return values, details


def per_layer_metrics(tracers, samples):
    per_round = [tracer.metrics() for tracer in tracers]
    values = {
        name: median([metrics[name] for metrics in per_round])
        for name in per_round[0]
    }
    values["trace.overhead_s"] = median(samples["traced"].walls) - median(
        samples["untraced"].walls
    )
    return values


def main(argv=None):
    args = parse_args(argv)
    package_dir = import_package()
    os.chdir(ROOT)
    WORKDIR.mkdir(exist_ok=True)

    from workloads import WORKLOADS, OperationFailed, Samples, Tally

    tally = Tally()
    samples = {"untraced": Samples(), "traced": Samples()}
    workload = WORKLOADS[args.workload](args.seed, WORKDIR, source_digest(package_dir))
    tracers = []
    rounds, tail = run_rounds(workload, tally, samples, args.seconds, args.trace, tracers)
    try:
        details = workload.finish(tally, audit=not args.trace)
    except OperationFailed:  # counted where it was raised
        details = {}
    except Exception as exc:  # checks that cannot run count as failed
        tally.fail("finish", exc)
        details = {}

    if args.trace:
        if not tracers:
            raise SystemExit("perfbench: no traced round completed")
        metrics = per_layer_metrics(tracers, samples)
        units = UNITS
        tag = f"{args.workload}-seed{args.seed}"
        tracers[-1].recorder.save(WORKDIR / f"{tag}.spans.npz")
    else:
        accuracy = [tally.max_rel_error, *tally.e_in]
        if (not samples["untraced"].tails or not tally.e_in or None in accuracy
                or not all(map(math.isfinite, accuracy))):
            raise SystemExit("perfbench: too many failures to report metrics")
        metrics, more = end_to_end_metrics(tally, samples["untraced"], tail)
        details.update(more)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "machine": machine_facts(),
        "details": details,
        "errors": tally.errors,
    }
    line = result_line(tally.failed == 0, tally.attempted, tally.failed, metrics, units)
    record = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"context": context, "result": json.loads(line)}, indent=1, default=str),
        encoding="utf-8",
    )
    print(json.dumps({"context": context}, default=str))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
