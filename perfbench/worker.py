"""One workload process: set up, print READY, run timed ops, print a result.

Started by run.py, which times the set-up from process start to the READY
line. Load is one client in a closed loop: the next op starts when the
previous one and its check are done. Ops run in whole cycles over the
workload's inputs, so per-op counts repeat exactly from run to run.

With --trace 1, even cycles run untraced and odd cycles traced, so the
tracing overhead compares the two halves of the same run.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

#: Ops beyond the tail percentile.
TAIL_OPS = 10


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with at least TAIL_OPS
    values above it; the maximum, as percentile 100, when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100
    index = n - TAIL_OPS - 1
    return ordered[index], math.floor(100 * (index + 1) / n)


def run_ops(workload, seconds: float, tracer) -> dict:
    """The timed loop; returns op times and failures."""
    untraced_ms: list[float] = []
    untraced_labels: list[str] = []
    traced_ms: list[float] = []
    failures: list[str] = []
    attempted = 0
    cycle = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None and workload.in_process:
            tracer.install() if traced else tracer.uninstall()
        for item in workload.next_cycle():
            attempted += 1
            root = None
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.op(attempted) as root:
                        output = workload.run(item, traced=True)
                else:
                    output = workload.run(item)
            except Exception as exc:  # an op that raises is a failed op
                failures.append(f"op {attempted} {item!r}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            if traced:
                workload.adopt_spans(root, attempted)
            failure = workload.verify(item, output)
            if failure is not None:
                failures.append(f"op {attempted}: {failure}")
                continue
            (traced_ms if traced else untraced_ms).append(1e3 * (t1 - t0))
            if not traced:
                untraced_labels.append(workload.label(item))
        cycle += 1
        # the traced run stops after an equal number of untraced and traced cycles
        if time.perf_counter() >= deadline and (tracer is None or cycle % 2 == 0):
            break
    if tracer is not None:
        tracer.uninstall()
    return {
        "attempted": attempted,
        "untraced_ms": untraced_ms,
        "untraced_labels": untraced_labels,
        "traced_ms": traced_ms,
        "failures": failures,
        "loop_s": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.workdir = args.workdir.resolve()  # CLI children run inside it

    tracer = spans.Tracer() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
        workload.setup()
        if tracer is not None:
            tracer.uninstall()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        loop = run_ops(workload, args.seconds, tracer)
        extras, finish_failures = workload.finish()
        ops = loop["untraced_ms"] + loop["traced_ms"]
        result = {
            "attempted": loop["attempted"],
            "failed": len(loop["failures"]),
            "failures": loop["failures"][:20] + finish_failures,
            "correct": not loop["failures"] and not finish_failures,
            "ops_completed": len(ops),
            "loop_s": loop["loop_s"],
            "untraced_ms": loop["untraced_ms"],
            "untraced_labels": loop["untraced_labels"],
            "traced_ms": loop["traced_ms"],
            "peak_rss_mb": workload.peak_rss_mb(),
            **extras,
        }
        if tracer is not None:
            trace_path = args.workdir.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            result["trace_file"] = trace_path.name
            result["layers"] = spans.summarize(tracer.spans, tracer.events)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
