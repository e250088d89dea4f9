"""Core trace-sink behaviour: enable/disable contract, capture, bounds."""

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceSink


class TestDefaults:
    def test_disabled_by_default(self):
        assert obs_trace.ENABLED is False
        assert obs_trace.DETAILED is False
        assert obs_trace.get_sink() is None

    def test_null_sink_records_nothing(self):
        # Emitting with no sink installed is a silent no-op.
        obs_trace.instant("x", 0.0, "scheduler", "queue", k=1)
        obs_trace.complete("x", 0.0, 1.0, "tenants", "BS")
        obs_trace.allocation(0.0, {"BS": (0, 29)})
        assert obs_trace.get_sink() is None


class TestCapture:
    def test_capture_installs_and_restores(self):
        with obs_trace.capture() as sink:
            assert obs_trace.ENABLED is True
            assert obs_trace.DETAILED is True
            assert obs_trace.get_sink() is sink
            obs_trace.instant("mark", 1.0, "scheduler", "queue")
        assert obs_trace.ENABLED is False
        assert obs_trace.get_sink() is None
        assert len(sink) == 1
        assert sink.events()[0].name == "mark"

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs_trace.capture():
                raise RuntimeError("boom")
        assert obs_trace.ENABLED is False
        assert obs_trace.get_sink() is None

    def test_captures_nest(self):
        with obs_trace.capture() as outer:
            obs_trace.instant("a", 0.0, "scheduler", "queue")
            with obs_trace.capture() as inner:
                obs_trace.instant("b", 1.0, "scheduler", "queue")
            obs_trace.instant("c", 2.0, "scheduler", "queue")
        assert [e.name for e in outer.events()] == ["a", "c"]
        assert [e.name for e in inner.events()] == ["b"]

    def test_capture_metadata_copied(self):
        meta = {"seed": 7}
        with obs_trace.capture(metadata=meta) as sink:
            pass
        meta["seed"] = 8
        assert sink.metadata == {"seed": 7}


class TestSinkBound:
    def test_limit_one_stays_bounded(self):
        sink = TraceSink(capacity=1)
        for i in range(5):
            sink.instant(f"e{i}", float(i), "scheduler", "queue")
        assert len(sink) == 1
        assert sink.evicted == 4
        assert sink.events()[0].name == "e4"

    def test_queries(self):
        sink = TraceSink()
        sink.complete("BS", 0.0, 2.0, "tenants", "BS", sms=30)
        sink.instant("launch", 0.5, "tenants", "GS")
        assert len(sink) == 2
        assert sink.evicted == 0
        first, second = sink.events()
        assert (first.name, first.ph, first.dur, first.args) == (
            "BS", "X", 2.0, {"sms": 30},
        )
        assert (second.ph, second.dur, second.args) == ("i", 0.0, None)
        assert [e.name for e in sink.events(1)] == ["launch"]
        assert sink.events(5) == sink.events()
        assert TraceSink().events() == []


class TestSpan:
    def test_span_emits_complete_event(self):
        with obs_trace.capture() as sink:
            obs_trace.complete("work", 0.0, 2.5, "daemon", "compile", kernel="BS")
        (event,) = sink.events()
        assert event.ph == "X"
        assert event.ts == 0.0 and event.dur == 2.5
        assert event.args == {"kernel": "BS"}
