"""Streaming trace replay: O(in-flight) memory, same answers as batch."""

import pytest

from repro.kernels.registry import SHORT_NAMES
from repro.workloads.trace import (
    TraceEntry,
    generate_trace,
    iter_trace,
    replay_trace,
    replay_trace_stream,
)


class TestIterTrace:
    def test_deterministic_per_seed(self):
        a = [(e.arrival, e.app.name) for e in iter_trace(10, seed=42)]
        b = [(e.arrival, e.app.name) for e in iter_trace(10, seed=42)]
        c = [(e.arrival, e.app.name) for e in iter_trace(10, seed=43)]
        assert a == b
        assert a != c

    def test_lazy_generation(self):
        """Entries materialize only as the consumer advances."""
        gen = iter_trace(1_000_000, seed=0)
        first = next(gen)
        second = next(gen)
        assert first.arrival < second.arrival
        gen.close()  # never built the other 999,998

    def test_arrivals_strictly_increasing(self):
        arrivals = [e.arrival for e in iter_trace(200, seed=5)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(iter_trace(0))
        with pytest.raises(ValueError):
            list(iter_trace(5, mean_interarrival=0))


class TestReplayStream:
    @pytest.mark.parametrize("runtime_name", ["CUDA", "MPS", "Slate"])
    def test_matches_batch_replay(self, runtime_name):
        """Streaming a materialized trace gives the batch replay's answers."""
        trace = generate_trace(5, reps=3, seed=7)
        batch_results, _ = replay_trace(runtime_name, trace)
        sink = {}
        summary, _ = replay_trace_stream(
            runtime_name, iter(trace), results_sink=sink
        )
        assert summary.apps == 5
        assert set(sink) == set(batch_results)
        for name, batch in batch_results.items():
            assert sink[name].end == pytest.approx(batch.end, rel=1e-12)
            assert sink[name].launches == batch.launches
        assert summary.makespan == pytest.approx(
            max(r.end for r in batch_results.values()), rel=1e-12
        )

    def test_summary_folds_without_sink(self):
        trace = generate_trace(6, reps=2, seed=3)
        summary, runtime = replay_trace_stream("Slate", iter(trace))
        assert summary.apps == 6
        assert summary.launches == 12
        assert summary.mean_turnaround > 0
        assert summary.total_kernel_time > 0
        assert runtime.scheduler.waiting_count == 0

    def test_bounded_logs_with_full_decision_count(self):
        """log_limit bounds memory while decisions_total counts everything."""
        trace = generate_trace(8, mean_interarrival=1e-3, reps=3, seed=9)
        summary, runtime = replay_trace_stream(
            "Slate", iter(trace), log_limit=2, rate_trace_limit=2
        )
        sched = runtime.scheduler
        assert summary.apps == 8
        assert len(sched.decision_log) <= 2
        assert len(runtime.gpu.rate_trace) <= 2
        assert sched.decisions_total >= 8 * 3

    def test_cluster_streaming_replay(self):
        trace = generate_trace(6, mean_interarrival=1e-3, reps=2, seed=11)
        summary, cluster = replay_trace_stream(
            "Slate", iter(trace), num_devices=2, placement="class-aware"
        )
        assert summary.apps == 6
        assert len(cluster.placements) == 6
        assert set(cluster.placements.values()) <= {0, 1}
        scheds = [cluster.runtime(i).scheduler for i in range(cluster.num_devices)]
        assert sum(s.solo_launches + s.corun_launches for s in scheds) == 12
        assert all(s.waiting_count == 0 and s.running_count == 0 for s in scheds)

    def test_cluster_requires_slate(self):
        with pytest.raises(ValueError):
            replay_trace_stream("MPS", iter_trace(2), num_devices=2)

    def test_empty_stream_finishes(self):
        summary, _ = replay_trace_stream("Slate", iter(()))
        assert summary.apps == 0
        assert summary.makespan == 0.0

    def test_long_stream_holds_only_inflight_state(self):
        """A 300-app stream replays without materializing the trace.

        Arrivals are paced below the service rate so in-flight tenants (and
        their simulated device allocations) stay bounded — the stream, not
        the device, is the thing under test.
        """
        summary, runtime = replay_trace_stream(
            "Slate",
            iter_trace(300, mean_interarrival=60e-3, reps=2, seed=1),
            preload_benchmarks=SHORT_NAMES,
            log_limit=16,
            rate_trace_limit=16,
        )
        assert summary.apps == 300
        assert summary.launches == 600
        assert len(runtime.scheduler.decision_log) <= 16
