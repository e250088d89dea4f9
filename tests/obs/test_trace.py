"""Core trace-sink behaviour: enable/disable contract, capture, bounds."""

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SINK, NullSink, TraceSink
from repro.sim import Environment


class TestDefaults:
    def test_disabled_by_default(self):
        assert obs_trace.ENABLED is False
        assert obs_trace.get_sink() is NULL_SINK
        assert NULL_SINK.enabled is False

    def test_null_sink_records_nothing(self):
        # Emitting against the default sink is a silent no-op.
        obs_trace.instant("x", 0.0, "scheduler", "queue", k=1)
        obs_trace.complete("x", 0.0, 1.0, "tenants", "BS")
        obs_trace.allocation(0.0, {"BS": (0, 29)})
        assert obs_trace.get_sink() is NULL_SINK

    def test_null_sink_has_no_dict(self):
        assert not hasattr(NullSink(), "__dict__")


class TestCapture:
    def test_capture_installs_and_restores(self):
        with obs_trace.capture() as sink:
            assert obs_trace.ENABLED is True
            assert obs_trace.get_sink() is sink
            obs_trace.instant("mark", 1.0, "scheduler", "queue")
        assert obs_trace.ENABLED is False
        assert obs_trace.get_sink() is NULL_SINK
        assert len(sink) == 1
        assert sink.events[0].name == "mark"

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs_trace.capture():
                raise RuntimeError("boom")
        assert obs_trace.ENABLED is False
        assert obs_trace.get_sink() is NULL_SINK

    def test_captures_nest(self):
        with obs_trace.capture() as outer:
            obs_trace.instant("a", 0.0, "scheduler", "queue")
            with obs_trace.capture() as inner:
                obs_trace.instant("b", 1.0, "scheduler", "queue")
            obs_trace.instant("c", 2.0, "scheduler", "queue")
        assert [e.name for e in outer.events] == ["a", "c"]
        assert [e.name for e in inner.events] == ["b"]

    def test_capture_metadata_copied(self):
        meta = {"seed": 7}
        with obs_trace.capture(metadata=meta) as sink:
            pass
        meta["seed"] = 8
        assert sink.metadata == {"seed": 7}


class TestSinkBound:
    def test_limit_drops_oldest_half_and_counts(self):
        sink = TraceSink(limit=10)
        for i in range(10):
            sink.instant(f"e{i}", float(i), "scheduler", "queue")
        assert len(sink) == 10 and sink.dropped == 0
        sink.instant("e10", 10.0, "scheduler", "queue")
        assert sink.dropped == 5
        assert len(sink) == 6
        # The newest events survive.
        assert sink.events[-1].name == "e10"
        assert sink.events[0].name == "e5"

    def test_limit_one_stays_bounded(self):
        sink = TraceSink(limit=1)
        for i in range(5):
            sink.instant(f"e{i}", float(i), "scheduler", "queue")
        assert len(sink) == 1
        assert sink.dropped == 4

    def test_queries(self):
        sink = TraceSink()
        sink.complete("BS", 0.0, 2.0, "tenants", "BS")
        sink.instant("launch", 0.5, "tenants", "GS")
        assert [e.name for e in sink.of_name("BS")] == ["BS"]
        assert len(sink.of_track("tenants")) == 2
        assert len(sink.of_track("tenants", "GS")) == 1
        assert sink.end_time() == 2.0
        assert TraceSink().end_time() == 0.0


class TestSpan:
    def test_span_emits_complete_event(self):
        env = Environment()
        with obs_trace.capture() as sink:
            with obs_trace.span("work", env, "daemon", "compile", kernel="BS"):
                env.run(until=2.5)
        (event,) = sink.events
        assert event.ph == "X"
        assert event.ts == 0.0 and event.dur == 2.5
        assert event.args == {"kernel": "BS"}

    def test_span_noop_when_disabled(self):
        env = Environment()
        with obs_trace.span("work", env, "daemon", "compile"):
            pass  # must not raise or record anywhere
