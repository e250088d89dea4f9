"""Telemetry-plane serving tests: the session-less ``metrics`` op, the
fleet view it returns, flight events over the wire, and the loadgen
client-side/server-side percentile cross-check."""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.obs import trace as obs_trace
from repro.obs.export import decode_events
from repro.obs.registry import Histogram, registry
from repro.obs.trace import TraceSink
from repro.serve.client import SlateClient
from repro.serve.loadgen import (
    LoadGenConfig,
    fetch_server_metrics,
    run_loadgen,
)
from repro.serve.server import ServeConfig, ServerThread


@pytest.fixture
def sock_path(tmp_path):
    path = tmp_path / "slate.sock"
    assert len(str(path)) < 100
    return str(path)


def hist_count(metrics, name):
    state = metrics["registry"]["histograms"].get(name)
    return state["count"] if state else 0


class TestMetricsOp:
    def test_sessionless_scrape_shape(self, sock_path):
        """The scrape needs no hello and reports the full fleet block."""
        with ServerThread(ServeConfig(socket_path=sock_path)):
            m = fetch_server_metrics(sock_path)
        assert m is not None
        assert {
            "registry", "shards", "sim_time", "wall", "slo",
            "protocol", "shard_count",
        } <= set(m)
        assert m["shard_count"] == 1
        assert {"counters", "gauges", "histograms"} <= set(m["registry"])
        names = {t["name"] for t in m["slo"]["targets"]}
        assert "launch-wall-p99" in names  # default targets installed

    def test_launches_land_in_counters_and_histograms(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            before = fetch_server_metrics(sock_path)
            with SlateClient(sock_path, name="m") as client:
                for _ in range(4):
                    client.launch("MM")
                after = client.metrics()  # same op via a live session
        counters = after["registry"]["counters"]
        delta = counters["serve.launches"] - before["registry"]["counters"].get(
            "serve.launches", 0
        )
        assert delta == 4
        for name in ("serve.latency.launch", "serve.sim_latency.launch"):
            assert hist_count(after, name) - hist_count(before, name) == 4

    def test_scrape_of_unreachable_socket_returns_none(self, tmp_path):
        assert fetch_server_metrics(str(tmp_path / "nope.sock")) is None

    def test_recent_without_recorder_is_empty(self, sock_path):
        obs_trace.set_sink(None)
        with ServerThread(ServeConfig(socket_path=sock_path)):
            m = fetch_server_metrics(sock_path, recent=10)
        assert m["recent"] == []
        assert m["recorder"] is None

    def test_recent_flight_events_over_wire(self, sock_path):
        rec = TraceSink(capacity=512, detail="light")
        obs_trace.set_sink(rec)
        try:
            obs_trace.instant("unit.sentinel", 1.0, "p", "t")
            with ServerThread(ServeConfig(socket_path=sock_path)):
                m = fetch_server_metrics(sock_path, recent=500)
        finally:
            obs_trace.set_sink(None)
        assert m["recorder"]["capacity"] == 512
        assert m["recorder"]["size"] == len(rec)
        sink = decode_events(m["recent"])
        assert "unit.sentinel" in {e.name for e in sink.events()}

    def test_recent_from_a_full_capture(self, sock_path):
        """With ``--trace`` the one sink is the unbounded capture: the
        reply takes its newest events and reports no capacity."""
        with obs_trace.capture() as sink:
            with ServerThread(ServeConfig(socket_path=sock_path)):
                with SlateClient(sock_path, name="t") as client:
                    client.launch("MM")
                m = fetch_server_metrics(sock_path, recent=3)
        assert m["recorder"]["capacity"] is None
        assert m["recorder"]["evicted"] == 0
        assert len(m["recent"]) == 3
        assert len(sink) > 3

    def test_engine_source_counts_served_work(self, sock_path):
        """Shards are only stepped, so their engine counters never reach
        the process aggregate; the reply adds them to the engine block."""
        with ServerThread(ServeConfig(socket_path=sock_path, shards=2)) as server:
            before = fetch_server_metrics(sock_path)["registry"]["sources"]["engine"]
            with SlateClient(sock_path, name="e") as client:
                for _ in range(4):
                    client.launch("MM")
            after = fetch_server_metrics(sock_path)["registry"]["sources"]["engine"]
            peaks = [shard.env.stats.heap_peak for shard in server.shards]
        assert after["events_processed"] > before["events_processed"]
        assert after["heap_peak"] >= max(peaks) > 0


    def test_dump_metrics_at_exit_reports_served_engine_work(self, tmp_path):
        """``repro serve --dump-metrics`` writes the same engine block as
        the scrape, so the shards' work is in the file too."""
        sock = str(tmp_path / "d.sock")
        dump = tmp_path / "metrics.json"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--shards", "2", "--dump-metrics", str(dump)],
            stdout=subprocess.DEVNULL, env=env,
        )
        try:
            with SlateClient(sock, connect_retries=600) as client:
                for _ in range(5):
                    client.launch("MM")
                scrape = client.metrics()["registry"]["sources"]["engine"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        dumped = json.loads(dump.read_text())["sources"]["engine"]
        assert dumped["events_processed"] > 0
        assert dumped["events_processed"] == scrape["events_processed"]


class TestFleetView:
    def test_inloop_shards_report_occupancy_and_skew(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, shards=2)):
            with SlateClient(sock_path, name="a") as client:
                client.launch("MM")
                m = client.metrics()
        assert set(m["shards"]) == {"0", "1"}
        for block in m["shards"].values():
            assert "sim_time" in block
            assert "sim_skew" in block
        gauges = m["registry"]["gauges"]
        assert "fleet.shard.0.sim_skew" in gauges
        assert "fleet.shard.1.sim_skew" in gauges


class TestLoadgenCrossCheck:
    def test_server_side_percentiles_within_bucket_resolution(self, sock_path):
        """Satellite (a): client-observed sim percentiles must agree with
        the server's histogram within one log-bucket (GROWTH factor)."""
        registry().reset_metrics()
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=2,
                    requests=12,
                    warmup=0,
                    processes=False,
                    seed=3,
                )
            )
        assert report.errors == 0
        assert report.server_launch_count == report.completed
        assert report.server_sim_latency_p50 is not None
        assert report.server_sim_latency_p99 is not None
        assert report.server_latency_p99 is not None
        bound = Histogram.GROWTH * (1 + 1e-9)
        for client_q, server_q in (
            (report.sim_latency_p50, report.server_sim_latency_p50),
            (report.sim_latency_p99, report.server_sim_latency_p99),
        ):
            assert server_q == pytest.approx(client_q, rel=bound - 1 + 0.01)

    def test_report_carries_the_scrape_and_formats_it(self, sock_path):
        registry().reset_metrics()
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=1,
                    requests=5,
                    warmup=0,
                    processes=False,
                )
            )
        assert report.server_metrics is not None
        assert "server-side:" in report.format()
        body = report.to_dict()
        assert body["server_launch_count"] == 5
        # Shard rows carry no registry of their own: every shard shares
        # the daemon's one registry.
        for shard in body["server_metrics"]["shards"].values():
            assert "registry" not in shard
