"""Smoke test of the end-to-end benchmark.

    PYTHONPATH=src:. python -m pytest benchmarks/e2e

Runs every workload briefly (a 0.5 s run instead of 10 s) through the
benchmark's own entry point and checks its contract: every metric of
``BENCHMARK.json`` is emitted with its unit, simulated results repeat
exactly for a seed and change with it, a failing request is counted
instead of aborting the run, and the compare tool flags a slowdown but
passes a self-comparison.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.measure import ROOT, declared_metrics
from benchmarks.e2e.serve_load import run_serve
from benchmarks.e2e.workloads import WORKLOADS

SECONDS = 0.5
SIM_METRICS = ("sim.makespan_s", "sim.turnaround_p50_ms", "sim.turnaround_p99_ms")
REFERENCE = ROOT / "benchmarks" / "e2e" / "reference" / "acceptance-1.json"


def run_benchmark(workload: str, seed: int, trace: int) -> dict:
    """The result object of one ``run.py`` invocation."""
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["trace_pair", "trace_nway_sliced"])
def test_simulated_results_repeat_per_seed_and_follow_it(workload):
    first = run_benchmark(workload, 0, 1)["metrics"]
    again = run_benchmark(workload, 0, 1)["metrics"]
    other = run_benchmark(workload, 1, 1)["metrics"]
    for name in SIM_METRICS:
        assert first[name]["value"] == again[name]["value"], name
        assert first[name]["value"] != other[name]["value"], name


def test_unknown_kernel_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    record = run_serve(
        WORKLOADS["serve_1shard"], 0, SECONDS, None, open_loop=True, mix=("BS", "NOPE")
    )
    assert record["failed"] > 0
    assert record["attempted"] > record["failed"]
    assert all("UnknownKernelError" in e for e in record["errors"])
    assert all(record["checks"].values())


@pytest.mark.skipif(not REFERENCE.is_file(), reason="no committed reference set")
def test_compare_flags_a_slowdown_and_passes_a_self_comparison(tmp_path, capsys):
    reference = json.loads(REFERENCE.read_text())
    # Half as much again as the bound: a slowdown the gate must flag.
    slowdown = 1.5 * declared_metrics()["end_to_end"]["ops_per_s"]["bound"]
    slowed = copy.deepcopy(reference)
    for run in slowed["runs"]:
        if run["workload"] == "trace_pair" and not run["trace"]:
            run["result"]["metrics"]["ops_per_s"]["value"] *= 1 - slowdown
    slowed_path = tmp_path / "slowed.json"
    slowed_path.write_text(json.dumps(slowed))

    assert compare.main([str(REFERENCE), str(REFERENCE)]) == 0
    assert compare.main([str(REFERENCE), str(slowed_path)]) == 1
    rows, _ = compare.compare_runs(
        *compare.pair_result_sets(
            compare.load_result_set(REFERENCE), compare.load_result_set(slowed_path)
        )
    )
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("trace_pair", "ops_per_s")] == "worse"
    assert verdicts[("trace_nway_sliced", "ops_per_s")] != "worse"
