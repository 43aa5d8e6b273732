"""matlift benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive-n5 --seed 1 --seconds 20 --trace 0

The benchmark imports matlift from the checkout's ``src`` directory. It sets
up the workload (timed, 3 to 100 times; the median is ``setup_s``), then runs
timed passes, at least one, while the next is expected to end within 1.25 x
``--seconds`` of pass time. Every pass is checked against the benchmark's own oracle outside the
timed region. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics, writing the spans under ``perfbench/out``. Human-readable
lines come first; the last line of standard output is the JSON result. The
exit code is 0 when every check passed, 1 when any oracle check or pin
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

# Importing matlift must leave no bytecode in the checkout's source tree.
sys.dont_write_bytecode = True

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

UNITS = {
    "decide_pairs_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[str, float, int]:
    """Highest of p95/p99/p99.9 with at least ten samples beyond it.

    Nearest-rank percentiles over the sorted samples; with fewer than 200
    samples no percentile qualifies and the maximum is reported. Returns the
    percentile's label, its value and how many samples lie beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for label, p in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95)):
        rank = math.ceil(p * count)
        if count - rank >= 10:
            return label, ordered[rank - 1], count - rank
    return "max", ordered[-1], 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def load_matlift() -> bool:
    """Import matlift from the checkout's ``src``; False if that fails."""
    if not os.path.isfile(os.path.join(SRC, "matlift", "__init__.py")):
        print(f"error: no matlift package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import matlift

    if os.path.dirname(os.path.dirname(os.path.abspath(matlift.__file__))) != SRC:
        print(f"error: imported matlift from {matlift.__file__}", file=sys.stderr)
        return False
    return True


def timed_setup(workload, clock):
    """Set up at least 3 times, and up to 100 until 1.5 s have been measured.

    Short set-ups are repeated many times because a few milliseconds, timed
    a few times, vary by half from run to run.
    """
    times = []
    while len(times) < 3 or (sum(times) < 1.5 and len(times) < 100):
        t0 = clock()
        state = workload.setup()
        times.append(clock() - t0)
    return state, statistics.median(times)


def checked_pass(workload, state, clock, tracer=None):
    prepared = workload.prepare(state)
    if tracer is not None:
        tracer.install()
    try:
        res = workload.run_pass(state, prepared, tracer, clock)
    finally:
        if tracer is not None:
            tracer.remove()
    workload.check(state, res)
    return res


def traced_run(workload):
    """Set-up, one untraced and one traced pass, all on the plain clock."""
    clock = time.perf_counter
    state = workload.setup()
    tracer = tracing.Tracer()
    passes = [checked_pass(workload, state, clock), checked_pass(workload, state, clock, tracer)]
    return passes, tracer


def measured_run(workload, seconds):
    """Set-up and passes under the speed probe, until ``seconds`` of passes."""
    with speed.Probe() as probe:
        state, setup_s = timed_setup(workload, probe.clock)
        passes = []
        measured = 0.0
        # another pass only if it should end within a quarter over budget
        while not passes or measured + passes[-1].wall_s <= 1.25 * seconds:
            passes.append(checked_pass(workload, state, probe.clock))
            measured += passes[-1].wall_s
    return passes, setup_s, probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_matlift():
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, os.path.join(WORK, args.workload))
    if args.trace:
        passes, tracer = traced_run(workload)
    else:
        passes, setup_s, probe = measured_run(workload, args.seconds)

    failures = list(workload.setup_failures) + [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = min(len(failures), attempted)
    for line in failures[:10] + failures[max(10, len(failures) - 10):]:
        print(f"FAIL {line}")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{attempted} attempted, {failed} failed")

    if args.trace:
        untraced, traced = passes
        metrics = tracer.metrics(traced.wall_s, untraced.wall_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.bin"))
    else:
        # per item: the best over passes, then percentiles over items
        per_item = [min(s) for s in zip(*(p.latencies for p in passes))]
        label, tail_value, beyond = tail(per_item)
        wall = statistics.median(p.wall_s for p in passes)
        rate = statistics.median(p.pairs_decided / p.decide_s for p in passes)
        factor = probe.factor()
        print(f"item_tail_ms is {label} of {len(per_item)} items ({beyond} beyond it)")
        print(f"speed probe: {len(probe.samples)} samples, times scaled by {factor:.4f}; "
              f"unscaled wall_s {wall:.4f}, setup_s {setup_s:.4f}")
        metrics = {
            "wall_s": wall * factor,
            "decide_pairs_per_s": rate / factor,
            "item_p50_ms": statistics.median(per_item) * 1000 * factor,
            "item_tail_ms": tail_value * 1000 * factor,
            "setup_s": setup_s * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / attempted,
        }
    emit(not failures, attempted, failed, metrics)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
