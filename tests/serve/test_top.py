"""Dashboard tests: the pure renderer against canned feeds, and the
plain front end against a live daemon."""

import io

import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.top import fetch_feed, render, run_top


@pytest.fixture
def sock_path(tmp_path):
    path = tmp_path / "slate.sock"
    assert len(str(path)) < 100
    return str(path)


def canned_feed():
    reg = MetricsRegistry()
    reg.counter("serve.launches").inc(42)
    reg.counter("obs.recorder.evicted").inc(7)
    reg.counter("scheduler.rejections").inc(3)
    h = reg.histogram("serve.latency.launch")
    for v in (0.001, 0.002, 0.004, 0.010):
        h.observe(v)
    return {
        "polled_at": 123.0,
        "metrics": {
            "registry": reg.export_state(),
            "shard_count": 2,
            "sim_time": 7.5,
            "shards": {
                "0": {
                    "sessions": 2,
                    "inflight": 1,
                    "sim_time": 7.5,
                    "sim_skew": 0.0,
                    "stats": {
                        "occupancy": {"covered_sms": 10, "num_sms": 15},
                        "scheduler": {"rejections": 3},
                    },
                },
                "1": {
                    "sessions": 1,
                    "inflight": 0,
                    "sim_time": 6.0,
                    "sim_skew": 1.5,
                    "stats": {
                        "occupancy": {"covered_sms": 0, "num_sms": 15},
                        "scheduler": {"rejections": 0},
                    },
                },
            },
            "slo": {
                "alerts_fired": 1,
                "targets": [
                    {
                        "name": "launch-wall-p99",
                        "good_ratio": 0.97,
                        "burning": True,
                        "burn": {"120s": 1.0, "30s": 3.1},
                    }
                ],
            },
        },
        "stats": {"sessions": 3, "inflight": 1, "policy": "table1", "uptime": 9.0},
    }


class TestRender:
    def test_no_feed_frame(self):
        assert "no feed" in render(None)

    def test_full_frame_contents(self):
        text = render(canned_feed())
        assert "shards 2 | policy" in text
        assert "policy table1" in text
        assert "launches 42" in text
        # Per-shard rows with each shard's occupancy.
        assert "10/15 SM" in text
        assert "0/15 SM" in text
        assert "1.500" in text  # shard 1 sim skew
        # Latency percentiles from the bucketed histogram.
        assert "wall  launch: p50" in text
        assert "n=4" in text
        assert "sim   launch: (no samples)" in text
        # SLO block: windows sorted numerically (30s before 120s), flag set.
        assert "SLO (alerts fired: 1)" in text
        assert text.index("30s:3.10x") < text.index("120s:1.00x")
        assert "[BURNING]" in text
        # Telemetry health line.
        assert "recorder-evicted 7" in text
        assert "admission-rejections 3" in text

    def test_width_clips_lines(self):
        text = render(canned_feed(), width=30)
        assert all(len(line) <= 30 for line in text.splitlines())

    def test_empty_metrics_renders_placeholders(self):
        text = render({"polled_at": 0.0, "metrics": {}, "stats": {}})
        assert "(no samples)" in text
        assert "repro top" in text


class TestLiveFeed:
    def test_fetch_feed_against_live_daemon(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            feed = fetch_feed(sock_path)
        assert feed is not None
        assert "registry" in feed["metrics"]
        assert "policy" in feed["stats"]
        # The sessionless poll consumed no session slot.
        assert feed["stats"]["sessions"] == 0

    def test_fetch_feed_unreachable_returns_none(self, tmp_path):
        assert fetch_feed(str(tmp_path / "nope.sock")) is None

    def test_run_top_plain_renders_one_frame(self, sock_path):
        out = io.StringIO()
        with ServerThread(ServeConfig(socket_path=sock_path)):
            code = run_top(sock_path, interval=0.0, iterations=1, plain=True, out=out)
        assert code == 0
        text = out.getvalue()
        assert "repro top" in text
        assert "SLO" in text
        assert text.strip().endswith("-" * 60)

    def test_run_top_plain_exit_code_without_daemon(self, tmp_path):
        out = io.StringIO()
        code = run_top(
            str(tmp_path / "nope.sock"),
            interval=0.0,
            iterations=2,
            plain=True,
            out=out,
        )
        assert code == 1
        assert out.getvalue().count("no feed") == 2
