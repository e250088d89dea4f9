"""Parallel-runner and persistent-cache integration tests.

The acceptance bar for the caching layer: a second invocation of the full
battery with a warm profile cache performs **zero** offline-profiling
simulations, and the parallel runner is observationally identical to the
serial one on any subset of keys.
"""

import random

import pytest

from repro.experiments import runner
from repro.slate import profiler
from repro.workloads.harness import reset_app_times


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Point every persistent cache at an empty directory for one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    profiler.configure_profile_cache(root=tmp_path)
    try:
        yield tmp_path
    finally:
        # Lazily back to the environment-derived default for later tests
        # (deferred so it reads the *unpatched* environment).
        profiler.reset_profile_cache()


class TestWarmCache:
    def test_full_battery_second_run_does_zero_profile_simulations(self, fresh_cache):
        # Each battery starts with an empty app-time memo, so the batteries
        # below compare real simulations, not kept app times.
        reset_app_times()
        runner.run_all(jobs=1)  # cold: populates the cache
        assert profiler.PROFILE_SIMULATIONS.value > 0

        profiler.PROFILE_SIMULATIONS.reset()
        reset_app_times()
        cold = runner.run_battery(jobs=1)
        assert profiler.PROFILE_SIMULATIONS.value == 0, (
            "warm-cache battery re-ran offline profiling simulations"
        )
        # ... and the warm results are byte-identical to a fresh battery.
        reset_app_times()
        warm = runner.run_battery(jobs=1)
        for a, b in zip(cold, warm):
            assert a.key == b.key
            assert a.formatted == b.formatted

    def test_profile_cache_invalidates_on_device_change(self, fresh_cache):
        from repro.config import TESLA_V100, TITAN_XP, CostModel
        from repro.kernels import blackscholes

        cache = profiler.ProfileCache(root=fresh_cache)
        spec, costs = blackscholes(), CostModel()
        profiler.offline_profile(spec, TITAN_XP, costs, cache=cache)
        assert cache.get(spec, TITAN_XP, costs, 10, "device") is not None
        # A different device fingerprint must miss, not serve a stale hit.
        assert cache.get(spec, TESLA_V100, costs, 10, "device") is None
        # ... as must a drifted kernel spec under the same name.
        drifted = spec.scaled(2.0)
        assert cache.get(drifted, TITAN_XP, costs, 10, "device") is None

    def test_disabled_cache_always_simulates(self, tmp_path, monkeypatch):
        from repro.kernels import quasirandom

        cache = profiler.ProfileCache(root=tmp_path, enabled=False)
        before = profiler.PROFILE_SIMULATIONS.value
        p1 = profiler.offline_profile(quasirandom(), cache=cache)
        p2 = profiler.offline_profile(quasirandom(), cache=cache)
        assert profiler.PROFILE_SIMULATIONS.value == before + 2
        assert p1 == p2  # deterministic even without the cache
        assert len(cache) == 0


class TestParallelEquivalence:
    def test_serial_and_parallel_results_identical_on_sampled_subset(self, fresh_cache):
        # A seeded sample of the registry, so successive PRs exercise a
        # stable-but-nontrivial slice of the battery.
        keys = sorted(random.Random(1337).sample(runner.experiment_keys(), 6))
        serial = runner.run_battery(keys, jobs=1)
        parallel = runner.run_battery(keys, jobs=4)
        assert [r.key for r in serial] == [r.key for r in parallel]
        for s, p in zip(serial, parallel):
            assert s.result == p.result or s.formatted == p.formatted
            assert s.formatted == p.formatted

    def test_parallel_order_matches_battery_order(self, fresh_cache):
        keys = ["sweep", "fig1", "tab3"]  # deliberately out of battery order
        runs = runner.run_battery(keys, jobs=2)
        assert [r.key for r in runs] == ["fig1", "tab3", "sweep"]
