"""Arrival-trace workload tests (multi-app scenarios)."""

import pytest

from repro.workloads.trace import TraceEntry, generate_trace, replay_trace


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_trace(10, seed=42)
        b = generate_trace(10, seed=42)
        c = generate_trace(10, seed=43)
        assert [(e.arrival, e.app.name) for e in a] == [
            (e.arrival, e.app.name) for e in b
        ]
        assert [(e.arrival, e.app.name) for e in a] != [
            (e.arrival, e.app.name) for e in c
        ]

    def test_arrivals_monotone(self):
        trace = generate_trace(20, seed=1)
        arrivals = [e.arrival for e in trace]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_unique_app_names(self):
        trace = generate_trace(20, seed=2)
        names = [e.app.name for e in trace]
        assert len(set(names)) == len(names)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(0)
        with pytest.raises(ValueError):
            generate_trace(5, mean_interarrival=0)


class TestReplay:
    @pytest.mark.parametrize("runtime", ["CUDA", "MPS", "Slate"])
    def test_all_apps_complete(self, runtime):
        trace = generate_trace(4, reps=3, seed=7)
        results, _ = replay_trace(runtime, trace)
        assert len(results) == 4
        for entry in trace:
            result = results[entry.app.name]
            assert result.launches == 3
            assert result.start >= entry.arrival

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_trace("CUDA", [])

    def test_slate_queue_handles_burst(self):
        """Several simultaneous tenants: at most two corun, rest wait,
        everyone eventually finishes."""
        trace = generate_trace(6, mean_interarrival=1e-3, reps=3, seed=3)
        results, runtime = replay_trace("Slate", trace)
        assert len(results) == 6
        sched = runtime.scheduler
        assert sched.waiting_count == 0
        assert sched.running_count == 0
        # The mix contains complementary kernels; some corun happened.
        assert sched.corun_launches + sched.solo_launches >= 18

    def test_slate_not_worse_than_cuda_on_mixed_trace(self):
        trace = generate_trace(5, mean_interarrival=10e-3, reps=4, seed=11)
        cuda_results, _ = replay_trace("CUDA", trace)
        slate_results, _ = replay_trace("Slate", trace)
        cuda_makespan = max(r.end for r in cuda_results.values())
        slate_makespan = max(r.end for r in slate_results.values())
        assert slate_makespan < cuda_makespan * 1.05

    def test_memory_accounting_clean_after_trace(self):
        trace = generate_trace(4, reps=2, seed=5)
        _, runtime = replay_trace("Slate", trace)
        assert runtime.memory.used == 0

    def test_bounded_logs_with_full_decision_count(self):
        """log_limit bounds memory while decisions_total counts everything."""
        trace = generate_trace(8, mean_interarrival=1e-3, reps=3, seed=9)
        results, runtime = replay_trace(
            "Slate", trace, log_limit=2, rate_trace_limit=2
        )
        sched = runtime.scheduler
        assert len(results) == 8
        assert len(sched.decision_log) <= 2
        assert len(runtime.gpu.rate_trace) <= 2
        assert sched.decisions_total >= 8 * 3


class TestBurstyTrace:
    def test_structure(self):
        from repro.workloads.trace import generate_bursty_trace

        trace = generate_bursty_trace(n_bursts=3, burst_size=4, seed=1)
        assert len(trace) == 12
        arrivals = [e.arrival for e in trace]
        assert arrivals == sorted(arrivals)
        # Bursts are separated by the gap: big jumps between groups.
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert sum(g > 20e-3 for g in gaps) == 2

    def test_validation(self):
        from repro.workloads.trace import generate_bursty_trace

        with pytest.raises(ValueError):
            generate_bursty_trace(0, 4)
        with pytest.raises(ValueError):
            generate_bursty_trace(2, 2, burst_gap=0)

    def test_burst_replays_under_slate(self):
        from repro.workloads.trace import generate_bursty_trace

        trace = generate_bursty_trace(2, 4, reps=2, seed=3)
        results, runtime = replay_trace("Slate", trace)
        assert len(results) == 8
        assert runtime.scheduler.waiting_count == 0


class TestHeavyTailedTrace:
    def test_mix_and_determinism(self):
        from repro.workloads.trace import generate_heavy_tailed_trace

        a = generate_heavy_tailed_trace(30, seed=5)
        b = generate_heavy_tailed_trace(30, seed=5)
        assert [(e.arrival, e.app.name, e.app.reps) for e in a] == [
            (e.arrival, e.app.name, e.app.reps) for e in b
        ]
        light = sum(e.app.name.startswith(("RG", "PF")) for e in a)
        assert 15 <= light <= 28  # ~70% light

    def test_validation(self):
        from repro.workloads.trace import generate_heavy_tailed_trace

        with pytest.raises(ValueError):
            generate_heavy_tailed_trace(5, light_fraction=1.5)

    def test_slate_beats_mps_on_heavy_tailed_mix(self):
        """The population the paper motivates: light riders beside heavy
        tenants -> workload-aware sharing wins end to end."""
        from repro.workloads.trace import generate_heavy_tailed_trace

        trace = generate_heavy_tailed_trace(6, mean_interarrival=8e-3, seed=9)
        mps_results, _ = replay_trace("MPS", trace)
        slate_results, _ = replay_trace("Slate", trace)
        mps_turnaround = sum(
            r.end - e.arrival for e, r in
            zip(trace, (mps_results[e.app.name] for e in trace))
        )
        slate_turnaround = sum(
            r.end - e.arrival for e, r in
            zip(trace, (slate_results[e.app.name] for e in trace))
        )
        assert slate_turnaround < mps_turnaround
