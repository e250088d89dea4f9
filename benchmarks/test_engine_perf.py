"""Performance benchmarks for the DES engine itself.

Not a paper experiment — engineering guardrails: the whole evaluation's
wall-clock cost hangs off the engine's event throughput, so regressions
here multiply into every other benchmark.

The three churn benches also report :attr:`Environment.stats` (events
processed, heap peak) and together write
``benchmarks/BENCH_engine.json`` — events/sec per microbenchmark.  The
file is a run's output (git-ignored, rewritten on every run); the
repository's performance gate is the paired end-to-end compare
(``benchmarks/e2e``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.sim import Environment, Store

BENCH_JSON = Path(__file__).parent / "BENCH_engine.json"


def _timeout_churn(n_events: int) -> Environment:
    env = Environment()

    def proc(env, reps):
        for _ in range(reps):
            yield env.timeout(1.0)

    for _ in range(10):
        env.process(proc(env, n_events // 10))
    env.run()
    assert env.now > 0
    return env


def _timer_churn(n_events: int) -> Environment:
    """``_timeout_churn``'s shape on ``call_later``: ten timer chains, each
    call re-arming the next, as the device's internal timers do."""
    env = Environment()

    def tick(left):
        if left > 1:
            env.call_later(1.0, tick, left - 1)

    for _ in range(10):
        env.call_later(1.0, tick, n_events // 10)
    env.run()
    assert env.now > 0
    return env


def _store_churn(n_items: int) -> Environment:
    env = Environment()
    store = Store(env)
    received = {"count": 0}

    def producer(env):
        for i in range(n_items):
            yield store.put(i)

    def consumer(env):
        for _ in range(n_items):
            yield store.get()
            received["count"] += 1

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received["count"] == n_items
    return env


@pytest.fixture(scope="session")
def engine_bench_json():
    """Collect events/sec per churn bench; write ``BENCH_engine.json`` at exit.

    Timing comes from pytest-benchmark's measured minimum when available;
    under ``--benchmark-disable`` the bench is re-timed directly (best of
    three) so the artifact is produced either way.
    """
    records: dict[str, dict[str, float]] = {}

    def record(name: str, env: Environment, benchmark, rerun) -> None:
        try:
            seconds = benchmark.stats.stats.min
        except AttributeError:
            seconds = None
        if not seconds:
            seconds = min(_timed(rerun) for _ in range(3))
        stats = env.stats
        records[name] = {
            "events": stats.events_processed,
            "heap_peak": stats.heap_peak,
            "seconds": round(seconds, 6),
            "events_per_sec": round(stats.events_processed / seconds),
        }

    yield record
    if records:
        BENCH_JSON.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"\nengine throughput written to {BENCH_JSON}")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_engine_timeout_throughput(benchmark, engine_bench_json):
    env = benchmark(_timeout_churn, 50_000)
    assert env.stats.events_processed >= 50_000
    engine_bench_json("timeout_churn", env, benchmark, lambda: _timeout_churn(50_000))


def test_engine_timer_throughput(benchmark, engine_bench_json):
    env = benchmark(_timer_churn, 50_000)
    assert env.stats.events_processed == 50_000
    engine_bench_json("timer_churn", env, benchmark, lambda: _timer_churn(50_000))


def test_engine_store_throughput(benchmark, engine_bench_json):
    env = benchmark(_store_churn, 20_000)
    assert env.stats.events_processed >= 20_000
    engine_bench_json("store_churn", env, benchmark, lambda: _store_churn(20_000))


def test_full_pairing_scenario_cost(benchmark):
    """End-to-end cost of one Fig-7 cell (pair under Slate)."""
    from repro.workloads.harness import app_for, run_pair

    def scenario():
        results, _ = run_pair("Slate", app_for("BS"), app_for("RG"))
        return results

    results = benchmark(scenario)
    assert set(results) == {"BS", "RG"}


# The heavier half of the battery: enough serial work that where it runs
# (parent or workers) shows clearly in CPU accounting.
_PARALLEL_KEYS = ["fig7", "abl-policy", "abl-partition", "validate", "scaling", "gen"]
#: Alternating jobs=1/jobs=4 pairs; medians are asserted, so one pair hit
#: by host noise cannot decide the verdict.
_PARALLEL_PAIRS = 5


def test_parallel_runner_shards_the_battery(benchmark, monkeypatch):
    """--jobs 4 runs the battery in its workers, not in the parent.

    Checked by CPU accounting, which host load does not move the way it
    moves wall time: over alternating pairs, the parent's own CPU under
    ``jobs=4`` stays a small fraction of a serial run's CPU, and the
    reaped workers' CPU (``RUSAGE_CHILDREN``, so the pool's fork start
    method) carries the work.  Measured over 8 pairs on a 2-vCPU host
    (Python 3.11): a serial run used 0.73-1.11 s of CPU; under ``jobs=4``
    the parent used 1.9-2.8% of that and its workers 98-174%.  Whether
    the shards also beat serial on the wall clock depends on free cores
    (the same pairs read wall-time ratios of 0.52-0.99); the paired
    end-to-end compare (``benchmarks/e2e``) is the wall-clock gate.
    """
    import resource
    import statistics

    from repro.experiments.runner import run_battery

    # Disable the result caches so both sides do the full simulation work
    # (workers inherit the environment through fork).
    monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def accounted(jobs):
        own, children = time.process_time(), children_cpu()
        runs = run_battery(_PARALLEL_KEYS, jobs=jobs)
        return runs, time.process_time() - own, children_cpu() - children

    parent_shares = []
    worker_shares = []

    def pairs():
        for _ in range(_PARALLEL_PAIRS):
            serial, serial_cpu, _ = accounted(1)
            parallel_runs, parent_cpu, worker_cpu = accounted(4)
            # Deterministic ordering and byte-identical output always hold.
            assert [r.key for r in parallel_runs] == [r.key for r in serial]
            for s, p in zip(serial, parallel_runs):
                assert s.formatted == p.formatted
            parent_shares.append(parent_cpu / serial_cpu)
            worker_shares.append(worker_cpu / serial_cpu)

    benchmark.pedantic(pairs, rounds=1, iterations=1)
    shown = (
        f"parent {', '.join(f'{r:.2f}' for r in parent_shares)}; "
        f"workers {', '.join(f'{r:.2f}' for r in worker_shares)} "
        f"(CPU as a fraction of the serial run's, {_PARALLEL_PAIRS} pairs)"
    )
    assert statistics.median(parent_shares) < 0.2, shown
    assert statistics.median(worker_shares) > 0.6, shown


def test_warm_profile_cache_skips_all_simulations(tmp_path, monkeypatch):
    """Second battery over a warm cache does zero offline_profile sims."""
    from repro.experiments.runner import run_all
    from repro.slate import profiler

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    profiler.configure_profile_cache(root=tmp_path)
    try:
        run_all(["tab1", "tab5", "fig7"], jobs=1)  # cold
        profiler.PROFILE_SIMULATIONS.reset()
        run_all(["tab1", "tab5", "fig7"], jobs=1)  # warm
        assert profiler.PROFILE_SIMULATIONS.value == 0
    finally:
        profiler.reset_profile_cache()
