"""Flight-recorder tests: the bounded, light-detail ``TraceSink`` the
serving daemon keeps installed — ring bounds, eviction accounting,
Perfetto dumps of the newest events, and the wire round-trip the
``metrics`` op's ``recent`` reply uses."""

import json

import pytest

from repro.obs import trace as obs_trace
from repro.obs.export import decode_events, encode_event, write_chrome_trace
from repro.obs.registry import registry
from repro.obs.trace import TraceSink
from repro.obs.validate import validate_file
from repro.serve.server import ServeConfig


@pytest.fixture(autouse=True)
def clean_state():
    yield
    obs_trace.set_sink(None)


class TestRing:
    def test_bounded_at_capacity_with_eviction_counts(self):
        before = registry().counter("obs.recorder.evicted").value
        rec = TraceSink(capacity=8, detail="light")
        for i in range(20):
            rec.instant(f"e{i}", float(i), "p", "t")
        assert len(rec) == 8
        assert rec.evicted == 12
        assert registry().counter("obs.recorder.evicted").value - before == 12
        names = [e.name for e in rec.events()]
        assert names == [f"e{i}" for i in range(12, 20)]  # oldest first

    def test_events_limit_returns_newest(self):
        rec = TraceSink(capacity=16, detail="light")
        for i in range(10):
            rec.instant(f"e{i}", float(i), "p", "t")
        assert [e.name for e in rec.events(3)] == ["e7", "e8", "e9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceSink(capacity=0)

    def test_all_event_phases_recorded(self):
        rec = TraceSink(capacity=32, detail="light")
        rec.instant("i", 0.0, "p", "t", k=1)
        rec.complete("x", 3.0, 0.5, "p", "t")
        rec.allocation(5.0, {"MM": (0, 14)})
        assert [e.ph for e in rec.events()] == ["i", "X", "i"]


class TestForwarding:
    def test_install_makes_recorder_the_process_sink(self):
        rec = TraceSink(capacity=16, detail="light")
        obs_trace.set_sink(rec)
        assert obs_trace.ENABLED and not obs_trace.DETAILED
        obs_trace.instant("hello", 0.5, "pid", "tid")
        assert [e.name for e in rec.events()] == ["hello"]
        assert obs_trace.get_sink() is rec


class TestDumpAndWire:
    def test_dump_writes_valid_perfetto_json(self, tmp_path):
        rec = TraceSink(capacity=8, detail="light", metadata={"who": "test"})
        for i in range(5):
            rec.complete(f"k{i}", float(i), 0.5, "tenants", "MM")
        out = tmp_path / "flight.json"
        write_chrome_trace(str(out), rec, newest=3, reason="unit-test")
        assert validate_file(str(out)) == []
        body = json.loads(out.read_text())
        spans = [e["name"] for e in body["traceEvents"] if e["ph"] == "X"]
        assert spans == ["k2", "k3", "k4"]  # the newest 3
        md = body["metadata"]
        assert md["reason"] == "unit-test"
        assert md["who"] == "test"
        assert md["dropped_events"] == 2

    def test_dump_recent_without_recorder_is_a_noop(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "s.sock"), flight_recorder=0)
        assert config.flight_dump_path() is None
        on = ServeConfig(socket_path=str(tmp_path / "s.sock"))
        assert on.flight_dump_path() == str(tmp_path / "s.sock") + ".flight.json"

    def test_serialize_round_trips_through_wire(self):
        rec = TraceSink(capacity=8, detail="light")
        rec.instant("e", 1.0, "p", "t", k=3)
        rec.complete("x", 2.0, 0.5, "p", "t")
        wired = json.loads(json.dumps([encode_event(e) for e in rec.events()]))
        sink = decode_events(wired, metadata={"src": "sock"})
        assert sink.events() == rec.events()
        assert sink.metadata == {"src": "sock"}
        assert sink.evicted == 0

    def test_snapshot_sink_carries_eviction_count_as_dropped(self, tmp_path):
        rec = TraceSink(capacity=2, detail="light")
        for i in range(5):
            rec.instant(f"e{i}", float(i), "p", "t")
        out = tmp_path / "flight.json"
        write_chrome_trace(str(out), rec)
        assert json.loads(out.read_text())["metadata"]["dropped_events"] == 3
