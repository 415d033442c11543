"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``)."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spans
import workloads
from worker import tail

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = run_bench("--workload", "cli_cold", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())

    report = json.loads(lines[-2])["metrics"]
    if trace == "0":
        for name in ("setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb",
                     "fail_ratio", "max_abs_error"):
            assert report[name]["unit"]
    else:
        # layer self times plus the untraced remainder make up the op wall time
        self_ms = sum(v["value"] for k, v in report.items() if k.endswith(".self_ms"))
        total = self_ms + report["trace.remainder_ms"]["value"]
        assert total == pytest.approx(report["trace.op_wall_ms"]["value"], rel=1e-9)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_flipped_report_byte_is_a_failure(tmp_path):
    load = workloads.CliCold(1, tmp_path)
    item = ("run", "eq10_theta_independent")
    good = b'{\n  "checks": [{"deviation": 1.5e-09}]\n}\n'
    path = load.output_path(item[1])
    path.write_bytes(good)
    assert load.verify(item, (0, "")) is None
    path.write_bytes(good)
    assert load.verify(item, (0, "")) is None
    flipped = bytearray(good)
    flipped[20] ^= 0x01
    path.write_bytes(bytes(flipped))
    assert load.verify(item, (0, "")) is not None
    assert load.verify(item, (0, "")) is not None  # no output written
    path.write_bytes(good)
    assert load.verify(item, (1, "check failed")) is not None


def test_matrix_off_by_1e6_is_a_failure():
    load = workloads.MeshGeneric(1, Path("."))
    spin = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    helicity = np.array([[0.5, -0.3], [-0.3, 0.5]], dtype=complex)
    reference = (spin, helicity, (0.7, 0.9), 1.0)
    load.reference = [reference]
    assert load.verify(0, reference) is None
    assert load.verify(0, (spin + 1e-6, helicity, (0.7, 0.9), 1.0)) is not None
    assert load.verify(0, (spin, helicity - 1e-6, (0.7, 0.9), 1.0)) is not None


def test_monte_carlo_repeat_and_sigma_bound():
    load = workloads.McCrosscheck(1, Path("."))
    quadrature = np.array([[0.5, -0.39], [-0.39, 0.5]], dtype=complex)
    load.cases = [(None, "helicity", 7, quadrature)]
    load.sigma_bound = 4.0
    std = np.full((2, 2), 1e-3)
    first = SimpleNamespace(value=quadrature + 1e-3, std_error=std)
    assert load.verify(0, first) is None
    assert load.verify(0, SimpleNamespace(value=quadrature + 1e-3, std_error=std)) is None
    moved = SimpleNamespace(value=quadrature + 1e-3 + 1e-6, std_error=std)
    assert load.verify(0, moved) is not None
    far = SimpleNamespace(value=quadrature + 5e-3, std_error=std)
    assert load.verify(0, far) is not None


def test_inputs_identical_for_same_seed():
    def cycles(seed):
        gen = workloads.command_cycles(seed)
        return [next(gen) for _ in range(6)]

    assert cycles(5) == cycles(5)
    assert cycles(5) != cycles(6)
    for (b1, t1, c1), (b2, t2, c2) in zip(workloads.mesh_states(5), workloads.mesh_states(5)):
        assert b1 == b2 and t1 == t2 and np.array_equal(c1, c2)
    assert not np.array_equal(workloads.mesh_states(5)[0][2], workloads.mesh_states(6)[0][2])
    assert workloads.mc_seeds(5) == workloads.mc_seeds(5)
    assert workloads.mc_seeds(5) != workloads.mc_seeds(6)


def test_sweep_closed_forms_match_bundled_sweeps():
    from helispin.cli import execute_sweep, load_input, parse_sweep

    for name in workloads.SWEEP_CLOSED_FORMS:
        rows = execute_sweep(parse_sweep(load_input(name)))
        data = "\n".join(",".join(row) for row in rows).encode()
        assert workloads.output_error(name, data) < 1e-8


def test_tail_leaves_ten_ops_above():
    values = [float(v) for v in range(100)]
    assert tail(values) == (89.0, 90)
    assert tail(values[:30]) == (19.0, 66)
    assert tail(values[:5]) == (4.0, 100)


def test_self_times_add_up_to_the_op():
    def span(sid, name, start, end, parent):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": 1, "pid": 1}

    trace = [
        span(2, "quadrature.build_grid", 2.0, 3.0, 3),
        span(3, "cli.execute_scenario", 1.0, 5.0, 1),
        span(1, "op", 0.0, 10.0, None),
    ]
    layers = spans.summarize(trace, [])
    assert layers["cli.execute_scenario.self_ms"] == pytest.approx(3000.0)
    assert layers["quadrature.build_grid.self_ms"] == pytest.approx(1000.0)
    assert layers["trace.remainder_ms"] == pytest.approx(6000.0)
    assert layers["quadrature.build_grid.first_ms"] == pytest.approx(1000.0)


def test_wrappers_are_removed_after_uninstall():
    import helispin
    import helispin.cli

    original = helispin.cli.build_grid
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert helispin.cli.build_grid is not original
        with tracer.op(1):
            helispin.cli.build_grid(4, 4, 4, 1.0)
    finally:
        tracer.uninstall()
    assert helispin.cli.build_grid is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["quadrature.build_grid", "op"]
    assert tracer.spans[0]["nodes"] == 64 and tracer.spans[0]["op"] == 1
