#!/usr/bin/env python3
"""helispin benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; helispin is imported from ``src/``.
The workload process (worker.py) is started SETUP_RUNS times: all but the
last run only their set-up, the last also runs the timed ops. ``setup_s``
is the median time from process start to the end of set-up.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). The line
before it is the full report: every metric with its unit, the tail
percentile and op count, failure messages, per-layer detail and the machine.
The report is also written to .perfbench/ with the trace spans.
Exit code 0 when every op and check passed, 1 when one failed, 2 when the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_RUNS = 3
#: Longest a worker may take beyond --seconds before it is stopped.
WORKER_GRACE_S = 120.0
#: Environment variables that set BLAS or OpenMP thread counts; recorded,
#: never set, so the first-call thread start-up stays visible.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "fail_ratio": "ratio", "max_abs_error": "abs",
}


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("ms"):
        return "ms"
    if stat == "bytes_computed":
        return "B"
    if stat.endswith("ratio"):
        return "ratio"
    return "count"


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, setup_only: bool) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, its result or None)."""
    workdir = WORKDIR / f"work-{os.getpid()}"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchmarkError(f"{args.workload} worker exited with code {code} "
                             f"{'before' if ready.strip() != 'READY' else 'after'} set-up")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def machine() -> dict:
    """Where the numbers were measured; read-only probes."""
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": None,
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info["caches"][f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    return info


def end_to_end(result: dict, setup_runs: list[float]) -> tuple[dict, dict]:
    """(metrics, detail) of an untraced run."""
    from worker import tail

    ops = result["untraced_ms"]
    if not ops:
        raise BenchmarkError(f"no op completed: {result['failures'][:3]}")
    tail_ms, percentile = tail(ops)
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(ops) / result["loop_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": result["failed"] / result["attempted"],
    }
    if "max_abs_error" in result:
        metrics["max_abs_error"] = result["max_abs_error"]
    by_input: dict[str, list[float]] = {}
    for label, ms in zip(result["untraced_labels"], ops):
        by_input.setdefault(label, []).append(ms)
    detail = {
        "op_tail_percentile": percentile,
        "ops": len(ops),
        "op_max_ms": max(ops),
        "setup_runs_s": setup_runs,
        "op_p50_ms_by_input": {k: statistics.median(v) for k, v in sorted(by_input.items())},
    }
    return metrics, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    """(metrics, detail) of a traced run."""
    if not result["traced_ms"] or not result["untraced_ms"]:
        raise BenchmarkError("the traced run completed no traced or no untraced op")
    traced_p50 = statistics.median(result["traced_ms"])
    untraced_p50 = statistics.median(result["untraced_ms"])
    layers = {**result["layers"], "trace.overhead_ratio": traced_p50 / untraced_p50}
    detail = {"traced_op_p50_ms": traced_p50, "untraced_op_p50_ms": untraced_p50,
              "trace_file": result["trace_file"]}
    return layers, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="helispin benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "helispin" / "__init__.py").is_file():
        print(f"perfbench: no helispin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    try:
        setup_runs = [start_worker(args, setup_only=True)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, result = start_worker(args, setup_only=False)
        setup_runs.append(setup_s)
        if args.trace:
            all_metrics, detail = per_layer(result)
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            all_metrics, detail = end_to_end(result, setup_runs)
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        missing = [name for name, _ in names if name not in all_metrics]
        if missing:
            raise BenchmarkError(f"{args.workload} does not report {missing}")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "failures": result["failures"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in all_metrics.items()},
        **detail,
        "machine": machine(),
    }
    if "max_sigma_distance" in result:
        report["max_sigma_distance"] = result["max_sigma_distance"]
    report_path = WORKDIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": all_metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
