"""Exporter tests: Perfetto/Chrome trace-event JSON and JSONL streams."""

import json

from repro.kernels import blackscholes, quasirandom
from repro.obs import trace as obs_trace
from repro.obs.export import (
    decode_events,
    run_metadata,
    to_chrome_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import TraceSink
from repro.obs.validate import validate_chrome_trace, validate_file
from repro.sim import Environment
from repro.slate import SlateRuntime


def _corun_capture():
    """Run a BS+RG corun (shrink + grow) under a capture; return the sink."""
    with obs_trace.capture(metadata=run_metadata(seed=3)) as sink:
        env = Environment()
        rt = SlateRuntime(env)
        bs, rg = blackscholes(), quasirandom(num_blocks=9600)
        rt.preload_profiles([bs, rg])

        def app(name, spec, delay=0.0):
            session = rt.create_session(name)
            yield env.timeout(delay)
            yield from session.launch(spec)
            yield from session.synchronize()

        pa = env.process(app("bs", bs))
        pb = env.process(app("rg", rg, delay=0.2e-3))
        env.run(until=pa & pb)
    return sink


class TestChromeExport:
    def test_corun_trace_is_valid_and_complete(self):
        sink = _corun_capture()
        events = to_chrome_events(sink.events())
        assert validate_chrome_trace(events) == []

        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        groups = set(names.values())
        assert {"SMs", "tenants", "scheduler", "daemon", "device"} <= groups

        sm_pid = next(p for p, n in names.items() if n == "SMs")
        sm_spans = [e for e in events if e["pid"] == sm_pid and e["ph"] == "X"]
        assert sm_spans, "per-SM occupancy tracks missing"
        assert {e["name"] for e in sm_spans} == {"BS", "RG"}
        # The device has 30 SMs and the corun splits it, so many rows exist.
        assert len({e["tid"] for e in sm_spans}) == 30

        tenant_pid = next(p for p, n in names.items() if n == "tenants")
        tenant_spans = [
            e for e in events if e["pid"] == tenant_pid and e["ph"] == "X"
        ]
        assert {e["name"] for e in tenant_spans} == {"BS", "RG"}
        assert all(e["dur"] > 0 for e in tenant_spans)

        # The corun shrinks BS: scheduler resize markers and device
        # retreats must both be present.
        assert any(e["name"] == "resize" for e in events)
        assert any(e["name"] == "kernel.retreat" for e in events)
        assert any(e["name"].startswith("decide.") for e in events)

    def test_instants_carry_thread_scope(self):
        sink = _corun_capture()
        instants = [e for e in to_chrome_events(sink.events()) if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_timestamps_in_microseconds(self):
        sink = _corun_capture()
        events = [e for e in to_chrome_events(sink.events()) if e["ph"] != "M"]
        # The replay spans milliseconds of simulated time, so microsecond
        # timestamps must reach into the hundreds.
        assert max(e["ts"] for e in events) > 100.0

    def test_write_chrome_trace_file(self, tmp_path):
        sink = _corun_capture()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, sink)
        assert count > 0
        assert validate_file(path) == []
        payload = json.loads(path.read_text())
        assert payload["metadata"]["seed"] == 3
        assert payload["metadata"]["dropped_events"] == 0
        assert payload["metadata"]["tool"] == "repro-obs"

    def test_empty_sink_exports_cleanly(self, tmp_path):
        path = tmp_path / "empty.json"
        assert write_chrome_trace(path, TraceSink()) == 0
        assert validate_file(path) == []

    def test_dropped_count_surfaces_in_metadata(self, tmp_path):
        sink = TraceSink(capacity=4)
        for i in range(9):
            sink.instant(f"e{i}", float(i), "scheduler", "queue")
        path = tmp_path / "dropped.json"
        write_chrome_trace(path, sink)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["dropped_events"] == sink.evicted == 5


class TestJsonl:
    def test_jsonl_round_trip(self, tmp_path):
        sink = _corun_capture()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(path, sink)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["seed"] == 3
        events = [line for line in lines[1:] if line["type"] == "event"]
        assert len(events) == count == len(sink)
        assert lines[0]["dropped_events"] == 0
        # JSONL keeps simulated seconds.
        assert all(e["ts"] < 1.0 for e in events)
        # The event lines decode back to the captured events.
        decoded = decode_events(events).events()
        assert [e[:6] for e in decoded] == [e[:6] for e in sink.events()]


class TestRunMetadata:
    def test_base_fields(self):
        meta = run_metadata(seed=11, extra_field="x")
        assert meta["tool"] == "repro-obs"
        assert meta["seed"] == 11
        assert meta["extra_field"] == "x"
        assert "python" in meta and "git_rev" in meta

    def test_config_fingerprint_is_stable(self):
        from repro.config import TITAN_XP, CostModel

        a = run_metadata(config=(TITAN_XP, CostModel()))
        b = run_metadata(config=(TITAN_XP, CostModel()))
        assert a["config_fingerprint"] == b["config_fingerprint"]


class TestValidator:
    def test_flags_missing_fields(self):
        problems = validate_chrome_trace([{"ph": "i", "ts": 0.0}])
        assert problems and "missing" in problems[0]

    def test_flags_unbalanced_spans(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
        ]
        problems = validate_chrome_trace(events)
        assert any("unclosed" in p for p in problems)

    def test_flags_bad_payload(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"nope": []})

    def test_parse_error_is_a_problem(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        problems = validate_file(path)
        assert problems and "cannot load" in problems[0]
