"""Prometheus exposition tests: rendered and then re-validated by the
repo's own format checker."""

from repro.obs.aggregate import prom_name, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.validate import validate_prometheus
from repro.serve.client import SlateClient
from repro.serve.server import ServeConfig, ServerThread


class TestPrometheus:
    def test_name_sanitization(self):
        assert prom_name("serve.latency.launch") == "repro_serve_latency_launch"
        assert prom_name("9weird-name!", namespace="") == "_9weird_name_"

    def test_histogram_series_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.0, 0.001, 0.002, 0.004):
            h.observe(v)
        text = to_prometheus(reg.export_state())
        lines = [l for l in text.splitlines() if l.startswith("repro_lat_bucket")]
        # Zero bucket first, +Inf last and equal to the count.
        assert lines[0] == 'repro_lat_bucket{le="0"} 1'
        assert lines[-1] == 'repro_lat_bucket{le="+Inf"} 4'
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)
        assert "repro_lat_count 4" in text
        assert "# TYPE repro_lat histogram" in text

    def test_exposition_validates(self):
        reg = MetricsRegistry()
        reg.counter("scheduler.decisions").inc(5)
        reg.gauge("serve.inflight").set(2.0)
        h = reg.histogram("serve.latency.launch")
        for v in (0.001, 0.01, 0.1, 1.0):
            h.observe(v)
        reg.register_source("engine", lambda: {"events": 42, "name": "x"})
        text = to_prometheus(reg.export_state())
        assert validate_prometheus(text) == []
        assert "repro_engine_events 42" in text
        assert "name" not in text.split("repro_engine_events")[1].splitlines()[0]

    def test_merged_fleet_state_validates(self, tmp_path):
        """The daemon's fleet view (the shared registry's export plus the
        per-shard clock gauges) renders as valid Prometheus text."""
        sock = str(tmp_path / "slate.sock")
        with ServerThread(ServeConfig(socket_path=sock)):
            with SlateClient(sock, name="prom") as client:
                client.launch("MM")
                fleet = client.metrics()
        text = to_prometheus(fleet["registry"])
        assert validate_prometheus(text) == []
        assert "repro_fleet_shard_0_sim_skew" in text
        assert "# TYPE repro_serve_launches counter" in text
        assert "# TYPE repro_serve_latency_launch histogram" in text
