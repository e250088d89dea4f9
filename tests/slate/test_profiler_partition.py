"""Profiler and partition tests."""

import pytest

from repro.config import TITAN_XP
from repro.gpu.device import KernelCounters
from repro.kernels import BENCHMARKS, blackscholes, quasirandom
from repro.slate.partition import MIN_SHARE, choose_partition
from repro.slate.profiler import (
    KernelProfile,
    ProfileTable,
    offline_profile,
    profile_from_counters,
)


def fake_profile(name="K", gflops=10.0, bw=100e9, throttle=0.0):
    from repro.slate.classify import classify

    return KernelProfile(
        name=name,
        gflops=gflops,
        mem_bw=bw,
        throttle_fraction=throttle,
        intensity=classify(gflops, bw),
        elapsed=1.0,
    )


class TestProfiler:
    def test_offline_profile_bs(self):
        p = offline_profile(blackscholes())
        assert p.name == "BS"
        assert 100 < p.gflops < 200
        assert p.throttle_fraction > 0.3

    def test_saturation_sms(self):
        assert fake_profile(throttle=0.0).saturation_sms() == 30
        assert fake_profile(throttle=0.5).saturation_sms() == 15
        assert fake_profile(throttle=0.99).saturation_sms() == 1

    def test_bs_saturates_around_a_dozen_sms(self):
        """The Fig. 1 insight applied to BS's profile."""
        p = offline_profile(blackscholes())
        assert 10 <= p.saturation_sms() <= 16

    def test_profile_from_counters(self):
        c = KernelCounters(name="X", start_time=0.0, end_time=2.0)
        c.flops = 4e9
        c.bytes_l2 = 100e9
        c.busy_time = 2.0
        c.mem_throttle_time = 0.5
        p = profile_from_counters(c)
        assert p.gflops == pytest.approx(2.0)
        assert p.mem_bw == pytest.approx(50e9)
        assert p.throttle_fraction == pytest.approx(0.25)

    def test_profile_table_stats(self):
        table = ProfileTable()
        assert table.get("missing") is None
        assert table.misses == 1
        table.put("K", fake_profile())
        assert table.get("K") is not None
        assert table.lookups == 2
        assert "K" in table
        assert len(table) == 1

    def test_record_run(self):
        table = ProfileTable()
        c = KernelCounters(name="Y", start_time=0.0, end_time=1.0)
        c.busy_time = 1.0
        p = table.record_run("Y", c)
        assert table.get("Y") is p


class TestPartition:
    def test_partition_is_disjoint_and_covers_device(self):
        a = offline_profile(blackscholes())
        b = offline_profile(quasirandom())
        part, primary, secondary = choose_partition(a, b)
        assert set(part.primary_sms) & set(part.secondary_sms) == set()
        assert set(part.primary_sms) | set(part.secondary_sms) == set(range(30))
        assert primary is a  # BS is the memory-intensive side
        assert secondary is b

    def test_bs_gets_its_saturation_share(self):
        a = offline_profile(blackscholes())
        b = offline_profile(quasirandom())
        part, _, _ = choose_partition(a, b)
        n_bs, n_rg = part.sizes
        assert n_bs == a.saturation_sms()
        assert n_rg == 30 - n_bs
        assert n_rg > n_bs  # RG rides the larger leftover share

    def test_min_share_guaranteed(self):
        heavy = fake_profile("heavy", bw=540e9, throttle=0.0)  # wants all 30
        light = fake_profile("light", bw=1e9)
        part, _, _ = choose_partition(heavy, light)
        assert part.sizes[0] == 30 - MIN_SHARE
        assert part.sizes[1] == MIN_SHARE

    def test_identical_profiles_split_evenly(self):
        p = fake_profile()
        part, _, _ = choose_partition(p, p)
        assert part.sizes == (15, 15)

    def test_invalid_min_share(self):
        p = fake_profile()
        with pytest.raises(ValueError):
            choose_partition(p, p, min_share=0)
        with pytest.raises(ValueError):
            choose_partition(p, p, min_share=16)

    def test_every_benchmark_pair_produces_valid_partition(self):
        profiles = {n: offline_profile(f()) for n, f in BENCHMARKS.items()}
        for a in profiles.values():
            for b in profiles.values():
                part, _, _ = choose_partition(a, b)
                n1, n2 = part.sizes
                assert n1 + n2 == 30
                assert n1 >= MIN_SHARE and n2 >= MIN_SHARE


class TestPersistence:
    def test_loaded_table_drives_scheduler(self, tmp_path):
        """Profiles an earlier run kept on disk seed a later runtime's
        table without a simulation, and it co-runs from the first launch."""
        from repro.sim import Environment
        from repro.slate import SlateRuntime, profiler
        from repro.workloads.app import run_application
        from repro.workloads.harness import app_for, run_pair

        specs = [blackscholes(), quasirandom()]
        # Without profiles: first runs were solo profiling runs.
        results, runtime = run_pair(
            "Slate", app_for("BS", reps=3), app_for("RG", reps=3),
            preload_profiles=False,
        )
        assert runtime.scheduler.solo_launches >= 2

        try:
            profiler.configure_profile_cache(root=tmp_path, enabled=True)
            SlateRuntime(Environment()).preload_profiles(specs)
            # A later run: a fresh cache instance reads the same directory.
            profiler.configure_profile_cache(root=tmp_path, enabled=True)
            before = profiler.PROFILE_SIMULATIONS.value
            env = Environment()
            rt = SlateRuntime(env)
            rt.preload_profiles(specs)
            assert profiler.PROFILE_SIMULATIONS.value == before
        finally:
            profiler.reset_profile_cache()
        procs = [
            env.process(run_application(env, rt.create_session(a.name), a, rt.costs))
            for a in (app_for("BS", reps=3), app_for("RG", reps=3))
        ]
        env.run(until=procs[0] & procs[1])
        assert rt.scheduler.corun_launches >= 3
