"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload xmark-write --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``bench.py``).  Each metric is printed on its own line with its
unit and sample count, after an environment header; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any check fails (the correctness gate, or the commit-path stage sum
of a traced run), and then no metric is reported.
``--describe`` prints the workload records instead of running.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    parser.add_argument("--describe", action="store_true", help="print the workload records")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench import run_workload
    from specs import WORKLOADS, describe

    if args.describe:
        print(json.dumps(describe(), indent=2, sort_keys=True))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        trace_out=args.trace_out,
        workroot=ROOT,
    )
    for key, value in result.environment.items():
        print(f"# {key}: {value}")
    print(f"# seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"failed_ops_frac {frac:.6g} ({result.failed} of {result.attempted} ops)")
    for problem in result.problems:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    if not result.correct:
        print(json.dumps({"correct": False, "attempted": result.attempted,
                          "failed": result.failed, "metrics": {}}))
        return 1
    for name, metric in result.metrics.items():
        samples = f" (n={metric.samples})" if metric.samples is not None else ""
        print(f"{name} {metric.value:.6g} {metric.unit}{samples}")
    metrics = {}
    for name, metric in result.metrics.items():
        if not math.isfinite(metric.value):
            print(f"perfbench: {name} is not finite", file=sys.stderr)
            return 1
        metrics[name] = {"value": metric.value, "unit": metric.unit}
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
