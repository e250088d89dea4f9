"""Metrics-registry tests: instruments, sources, and the compat shims."""

import json

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, registry


class TestInstruments:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b
        a.inc()
        a.inc(3)
        assert b.value == 4

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge(self):
        g = MetricsRegistry().gauge("g")
        g.set(2.5)
        g.inc()
        g.dec(0.5)
        assert g.value == 3.0

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        summary = h.summary()
        # The original summary keys stay backward-compatible...
        compat = {k: summary[k] for k in ("count", "sum", "min", "max", "mean")}
        assert compat == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        # ...and the log-bucket upgrade adds quantile estimates.
        assert {"p50", "p90", "p99", "p999"} <= set(summary)
        assert 1.0 <= summary["p50"] <= 3.0
        assert summary["p999"] == 3.0
        h.reset()
        assert h.count == 0 and h.mean == 0.0 and h.buckets == {}

    def test_snapshot_shape_and_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        parsed = json.loads(reg.to_json())
        assert parsed["counters"] == {"c": 1}

    def test_reset_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.reset_metrics()
        assert reg.counter("c").value == 0

    def test_contains_and_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert "a" in reg and "z" not in reg
        assert reg.metric_names() == ["a", "b"]


class TestSources:
    def test_broken_source_does_not_kill_snapshot(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("nope")

        reg.register_source("bad", broken)
        snap = reg.snapshot()
        assert "error" in snap["sources"]["bad"]

    def test_process_registry_has_standard_sources(self):
        reg = registry()
        assert {"engine", "rates_memo", "occupancy_cache"} <= set(reg.source_names())
        engine = reg.source_snapshot("engine")
        assert "events_processed" in engine
        assert "epoch_flushes" in engine

    def test_engine_source_tracks_aggregate(self):
        from repro.sim import Environment, aggregate_stats

        reg = registry()
        before = reg.source_snapshot("engine")["events_processed"]
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)

        env.run(until=env.process(proc(env)))
        after = reg.source_snapshot("engine")["events_processed"]
        assert after > before
        assert after == aggregate_stats().snapshot()["events_processed"]


class TestSchedulerMirrors:
    def test_scheduler_counters_grow_after_a_run(self):
        from repro.kernels import blackscholes
        from repro.sim import Environment
        from repro.slate import SlateRuntime

        reg = registry()
        before = reg.counter("scheduler.submits").value
        solo_before = reg.counter("scheduler.solo_launches").value
        env = Environment()
        rt = SlateRuntime(env)
        bs = blackscholes()
        rt.preload_profiles([bs])
        session = rt.create_session("app")

        def app(env):
            yield from session.launch(bs)
            yield from session.synchronize()

        env.run(until=env.process(app(env)))
        assert reg.counter("scheduler.submits").value == before + 1
        assert reg.counter("scheduler.solo_launches").value == solo_before + 1
        # The instance view still works (compat surface).
        assert rt.scheduler.solo_launches == 1
