"""Performance benchmarks for the DES engine itself.

Not a paper experiment — engineering guardrails: the whole evaluation's
wall-clock cost hangs off the engine's event throughput, so regressions
here multiply into every other benchmark.

The four churn benches also report :attr:`Environment.stats` (events
processed, heap peak, timeout-pool reuse) and together write
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

from repro.sim import Environment, Resource, Store

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


def _resource_churn(n_ops: int) -> Environment:
    env = Environment()
    res = Resource(env, capacity=4)
    done = {"count": 0}

    def user(env, reps):
        for _ in range(reps):
            with res.request() as req:
                yield req
                yield env.timeout(0.1)
            done["count"] += 1

    for _ in range(20):
        env.process(user(env, n_ops // 20))
    env.run()
    assert done["count"] == n_ops
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
            "timeouts_reused": stats.timeouts_reused,
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
    stats = env.stats
    assert stats.events_processed >= 50_000
    assert stats.timeouts_reused > 0  # the free list is actually cycling
    engine_bench_json("timeout_churn", env, benchmark, lambda: _timeout_churn(50_000))


def test_engine_timer_throughput(benchmark, engine_bench_json):
    env = benchmark(_timer_churn, 50_000)
    stats = env.stats
    assert stats.events_processed == 50_000
    assert stats.timeouts_pooled == 0  # no Timeout is involved
    engine_bench_json("timer_churn", env, benchmark, lambda: _timer_churn(50_000))


def test_engine_resource_throughput(benchmark, engine_bench_json):
    env = benchmark(_resource_churn, 20_000)
    stats = env.stats
    assert stats.events_processed >= 20_000
    assert stats.heap_peak > 0
    engine_bench_json("resource_churn", env, benchmark, lambda: _resource_churn(20_000))


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


# The heavier half of the battery: enough serial work that sharding across
# workers must visibly win despite pool start-up cost.
_PARALLEL_KEYS = ["fig7", "abl-policy", "abl-partition", "validate", "scaling", "gen"]
#: Alternating jobs=1/jobs=4 pairs; the median ratio is asserted, so one
#: pair hit by host noise cannot decide the verdict.
_PARALLEL_PAIRS = 5


def test_parallel_runner_beats_serial(benchmark, monkeypatch):
    """--jobs 4 must measurably beat --jobs 1 on the same (uncached) work.

    Timed the way the end-to-end compare times a change: alternating
    pairs, and the median of the per-pair wall-time ratios must stay
    under 0.75.
    """
    import os
    import statistics
    import time

    import pytest

    from repro.experiments.runner import run_battery

    # Disable the result caches so both sides do the full simulation work
    # (workers inherit the environment through fork).
    monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def timed(jobs):
        start = time.perf_counter()
        runs = run_battery(_PARALLEL_KEYS, jobs=jobs)
        return runs, time.perf_counter() - start

    ratios = []

    def pairs():
        for _ in range(_PARALLEL_PAIRS):
            serial, serial_elapsed = timed(1)
            parallel_runs, parallel_elapsed = timed(4)
            # Deterministic ordering and byte-identical output always hold...
            assert [r.key for r in parallel_runs] == [r.key for r in serial]
            for s, p in zip(serial, parallel_runs):
                assert s.formatted == p.formatted
            ratios.append(parallel_elapsed / serial_elapsed)

    benchmark.pedantic(pairs, rounds=1, iterations=1)
    ratio = statistics.median(ratios)
    shown = ", ".join(f"{r:.2f}" for r in ratios)
    # ... the wall-clock win needs actual cores to shard across.
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s): process sharding cannot beat serial "
            f"(median jobs=4/jobs=1 wall-time ratio {ratio:.2f}; {shown})"
        )
    assert ratio < 0.75, (
        f"median jobs=4/jobs=1 wall-time ratio {ratio:.2f} over "
        f"{_PARALLEL_PAIRS} pairs ({shown})"
    )


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
