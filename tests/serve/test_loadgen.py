"""Load-generator tests: mix parsing, per-seed determinism, aggregation,
and small end-to-end runs against a live daemon."""

import json

import pytest

from repro.kernels.registry import UnknownKernelError
from repro.serve.loadgen import (
    LoadGenConfig,
    parse_mix,
    percentile,
    plan_client,
    run_loadgen,
)
from repro.serve.server import ServeConfig, ServerThread


class TestMixParsing:
    def test_weighted_mix(self):
        assert parse_mix("BS:2,MM:1") == [("BS", 2.0), ("MM", 1.0)]

    def test_default_weight_is_one(self):
        assert parse_mix("bs,gs") == [("BS", 1.0), ("GS", 1.0)]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(UnknownKernelError):
            parse_mix("BS:1,NOPE:2")

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            parse_mix("BS:0")
        with pytest.raises(ValueError):
            parse_mix("")

    def test_config_validates_eagerly(self):
        with pytest.raises(UnknownKernelError):
            LoadGenConfig(socket_path="/tmp/x.sock", mix="WAT:1")
        with pytest.raises(ValueError):
            LoadGenConfig(socket_path="/tmp/x.sock", mode="bursty")


class TestDeterminism:
    def test_same_seed_same_plan(self):
        cfg = LoadGenConfig(socket_path="/tmp/x.sock", seed=7, requests=40)
        assert plan_client(cfg, 0) == plan_client(cfg, 0)
        assert plan_client(cfg, 3) == plan_client(cfg, 3)

    def test_different_clients_different_plans(self):
        cfg = LoadGenConfig(socket_path="/tmp/x.sock", seed=7, requests=40)
        assert plan_client(cfg, 0)[0] != plan_client(cfg, 1)[0]

    def test_different_seeds_different_plans(self):
        a = LoadGenConfig(socket_path="/tmp/x.sock", seed=1, requests=40)
        b = LoadGenConfig(socket_path="/tmp/x.sock", seed=2, requests=40)
        assert plan_client(a, 0)[0] != plan_client(b, 0)[0]

    def test_open_loop_offsets_monotonic(self):
        cfg = LoadGenConfig(
            socket_path="/tmp/x.sock", mode="open", rate=100.0, requests=20
        )
        _, offsets = plan_client(cfg, 0)
        assert offsets == sorted(offsets)
        assert all(t > 0 for t in offsets)

    def test_closed_loop_has_no_offsets(self):
        cfg = LoadGenConfig(socket_path="/tmp/x.sock", requests=5)
        _, offsets = plan_client(cfg, 0)
        assert offsets == [0.0] * 5

    def test_mix_weights_steer_the_plan(self):
        cfg = LoadGenConfig(
            socket_path="/tmp/x.sock", mix="BS:100,TR:1", requests=60, seed=0
        )
        kernels, _ = plan_client(cfg, 0)
        assert kernels.count("BS") > kernels.count("TR")


class TestPercentile:
    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_single(self):
        assert percentile([4.2], 50) == 4.2

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


@pytest.fixture
def sock_path(tmp_path):
    path = tmp_path / "slate.sock"
    assert len(str(path)) < 100
    return str(path)


class TestEndToEnd:
    def test_threaded_run_completes_everything(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            launches0 = server._m_launches.value
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=3,
                    requests=6,
                    seed=11,
                    processes=False,
                )
            )
            assert report.completed == 18
            assert report.errors == 0
            assert report.requests_per_s > 0
            assert 0 < report.latency_p50 <= report.latency_p99 <= report.latency_max
            assert sum(report.kernels.values()) == 18
            assert server._m_launches.value - launches0 == 18

    def test_open_loop_run(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=2,
                    requests=4,
                    mode="open",
                    rate=500.0,
                    processes=False,
                )
            )
            assert report.completed == 8
            assert report.errors == 0

    def test_process_clients(self, sock_path):
        """Real OS processes over the socket — the acceptance-criteria path."""
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path, clients=2, requests=3, processes=True
                )
            )
            assert report.completed == 6
            assert report.errors == 0

    def test_report_round_trips_through_json(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path, clients=1, requests=3, processes=False
                )
            )
        body = json.loads(report.to_json())
        assert body["completed"] == 3
        assert body["errors"] == 0
        assert {"latency_p50", "latency_p99", "requests_per_s"} <= set(body)
        # Raw latency lists are summarized to counts in the export.
        assert body["per_client"][0]["latencies"] == 3

    def test_backpressure_retries_eventually_land(self, sock_path):
        """With a tiny admission bound and many concurrent clients, busy
        replies happen but retried launches complete with zero errors."""
        with ServerThread(
            ServeConfig(socket_path=sock_path, max_inflight=1)
        ):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=4,
                    requests=3,
                    busy_retries=50,
                    processes=False,
                )
            )
            assert report.completed == 12
            assert report.errors == 0

    def test_two_inflight_bound_still_completes_every_request(self, sock_path):
        """Busy replies are cheap rejections, not queue buildup: under a
        ``max_inflight=2`` bound, 4 clients x 40 requests all land."""
        with ServerThread(ServeConfig(socket_path=sock_path, max_inflight=2)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=4,
                    requests=40,
                    warmup=4,
                    busy_retries=100,
                    processes=False,
                )
            )
            assert report.completed == 160
            assert report.errors == 0, report.error_messages


class TestWarmupAndMixMode:
    def test_warmup_requests_excluded_from_stats(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=2,
                    requests=4,
                    warmup=3,
                    processes=False,
                )
            )
            # Warmup launches hit the server but never the statistics.
            assert report.completed == 8
            assert report.warmup_completed == 6
            assert len(report.per_client[0].latencies) == 4
            assert server._m_launches.value >= 14

    def test_measure_wall_excludes_spawn(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=2,
                    requests=3,
                    warmup=1,
                    processes=False,
                )
            )
            assert 0 < report.measure_wall <= report.wall
            assert report.requests_per_s == pytest.approx(
                report.completed / report.measure_wall
            )

    def test_client_mix_mode_gives_each_client_one_kernel(self):
        cfg = LoadGenConfig(
            socket_path="/tmp/x.sock",
            requests=20,
            warmup=2,
            mix_mode="client",
            seed=5,
        )
        kernels, offsets = plan_client(cfg, 0)
        assert len(kernels) == 22  # warmup + requests
        assert len(set(kernels)) == 1
        # Different clients can draw different kernels, deterministically.
        assert plan_client(cfg, 1) == plan_client(cfg, 1)

    def test_mix_mode_validated(self):
        with pytest.raises(ValueError):
            LoadGenConfig(socket_path="/tmp/x.sock", mix_mode="chaotic")
        with pytest.raises(ValueError):
            LoadGenConfig(socket_path="/tmp/x.sock", warmup=-1)

    def test_sim_throughput_reported_per_shard(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, shards=2)):
            report = run_loadgen(
                LoadGenConfig(
                    socket_path=sock_path,
                    clients=4,
                    requests=5,
                    mix="MM:1,RG:1",
                    mix_mode="client",
                    processes=False,
                    seed=2,
                )
            )
            assert report.errors == 0
            assert report.sim_requests_per_s > 0
            assert report.sim_latency_p50 > 0
            assert sum(b["completed"] for b in report.shards.values()) == 20
            # Sessions landed on real shards and the report says which.
            assert set(report.shards) <= {"0", "1"}
