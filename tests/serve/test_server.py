"""Daemon tests: session lifecycle, concurrency, reaping, admission control.

Every test runs a real server on a Unix socket (in a background thread via
:class:`ServerThread`) and talks to it through real sockets — the same
path ``repro serve`` exercises, minus the process boundary.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.kernels.registry import UnknownKernelError
from repro.obs import trace as obs_trace
from repro.serve.client import SlateClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    ServerBusyError,
    ServerError,
    SessionLimitError,
    SessionStateError,
    VersionMismatchError,
    encode_frame,
    request,
)
from repro.serve.router import SimDriver
from repro.serve.server import ServeConfig, ServerThread


@pytest.fixture
def sock_path(tmp_path):
    # AF_UNIX paths are length-limited (~108 bytes); tmp_path stays short
    # under pytest's default basetemp, but guard anyway.
    path = tmp_path / "slate.sock"
    assert len(str(path)) < 100, f"socket path too long: {path}"
    return str(path)


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestBasicLifecycle:
    def test_hello_launch_stats_bye(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            with SlateClient(sock_path, name="alice") as client:
                assert client.session == 1
                assert client.session_name == "alice#1"
                reply = client.launch("MM")
                assert reply.kernel == "MM"
                assert reply.sim_finished > reply.sim_submitted
                assert reply.sim_exec and reply.sim_exec > 0
                stats = client.stats()
                assert stats["session"]["launches"] == 1
                assert stats["server"]["sessions"] == 1
            assert _wait_until(lambda: server.session_count == 0)

    def test_register_compiles_once(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path) as client:
                first = client.register("GS")
                again = client.register("GS")
                assert first["compile_time"] > 0
                assert again["compile_time"] == 0  # code cache hit

    def test_sim_time_does_not_advance_while_idle(self, sock_path):
        """Wall-clock gaps between requests must not leak into sim time."""
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path) as client:
                t1 = client.ping()["sim_time"]
                time.sleep(0.2)
                t2 = client.ping()["sim_time"]
                assert t2 == t1


class TestTypedErrors:
    def test_unknown_kernel_is_structured_not_fatal(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            with SlateClient(sock_path) as client:
                with pytest.raises(UnknownKernelError, match="BOGUS"):
                    client.launch("BOGUS")
                # The daemon survives and the session still works.
                assert client.launch("BS").kernel == "BS"
                assert client.stats()["session"]["errors"] == 1
            assert server.shards[0].driver.sim_errors == 0

    @pytest.mark.parametrize("task_size", [0, -3, 2.5, "10"])
    def test_bad_task_size_is_a_protocol_error(self, sock_path, task_size):
        """A size the scheduler cannot dispatch is refused before
        admission: nothing is queued and the shard keeps serving."""
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            with SlateClient(sock_path) as client:
                with pytest.raises(ProtocolError, match="task_size"):
                    client.launch("MM", task_size=task_size)
            assert _wait_until(lambda: server.inflight == 0)
            assert _wait_until(lambda: server.session_count == 0)
            sched = server.stats()["scheduler"]
            assert sched["decisions"] == 0 and sched["solo_launches"] == 0
            with SlateClient(sock_path) as client:
                assert client.launch("MM").task_size == 10
            assert server.shards[0].driver.sim_errors == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("priority", "abc"),
            ("priority", 2.7),
            ("priority", "7"),
            ("priority", True),
            ("deadline", "soon"),
            ("deadline", float("nan")),
            ("deadline", float("inf")),
        ],
    )
    def test_bad_priority_or_deadline_is_a_protocol_error(
        self, sock_path, field, value
    ):
        """Neither is coerced: a value the scheduler would misread is
        refused before admission and the shard keeps serving."""
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            with SlateClient(sock_path) as client:
                with pytest.raises(ProtocolError, match=field):
                    client.launch("MM", **{field: value})
            assert _wait_until(lambda: server.session_count == 0)
            assert server.inflight == 0
            sched = server.stats()["scheduler"]
            assert sched["decisions"] == 0 and sched["solo_launches"] == 0
            with SlateClient(sock_path) as client:
                reply = client.launch("MM", priority=3, deadline=1e9)
                assert reply.priority == 3
            assert server.shards[0].driver.sim_errors == 0

    @pytest.mark.parametrize(
        "op,field,value",
        [
            ("metrics", "recent", -1),
            ("metrics", "recent", "abc"),
            ("metrics", "recent", True),
            ("metrics", "recent", 2.5),
            ("hello", "shard", "x"),
            ("hello", "shard", 0.7),
            ("hello", "shard", True),
        ],
    )
    def test_bad_recent_or_shard_is_a_protocol_error(
        self, sock_path, op, field, value
    ):
        """Neither is coerced: a negative ``recent`` would slip past the
        reply cap, and a coerced ``shard`` pins the session to a shard the
        client never named.  The refusal comes before any state changes."""
        obs_trace.set_sink(obs_trace.TraceSink(capacity=64, detail="light"))
        try:
            with ServerThread(ServeConfig(socket_path=sock_path, shards=2)) as server:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(sock_path)
                sock.settimeout(5.0)
                params = {field: value}
                if op == "hello":
                    params["version"] = PROTOCOL_VERSION
                stream = MessageStream(sock)
                stream.send(request(1, op, **params))
                reply = stream.recv()
                sock.close()
                assert reply["ok"] is False
                assert reply["error"]["type"] == "ProtocolError"
                assert field in reply["error"]["message"]
                assert server.session_count == 0
                with SlateClient(sock_path) as client:
                    assert client.session == 1
                    assert len(client.metrics(recent=5)["recent"]) <= 5
        finally:
            obs_trace.set_sink(None)

    def test_unknown_kernel_on_register(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path) as client:
                with pytest.raises(UnknownKernelError):
                    client.register("NOPE")

    @pytest.mark.parametrize("version", [1, PROTOCOL_VERSION + 1])
    def test_version_mismatch_rejected(self, sock_path, version):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            stream = MessageStream(sock)
            stream.send(request(1, "hello", version=version))
            reply = stream.recv()
            assert reply["ok"] is False
            assert reply["error"]["type"] == "VersionMismatch"
            sock.close()

    def test_op_before_hello_rejected(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            stream = MessageStream(sock)
            stream.send(request(1, "launch", kernel="MM"))
            reply = stream.recv()
            assert reply["ok"] is False
            assert reply["error"]["type"] == "SessionState"
            sock.close()

    def test_unknown_op_rejected_then_dropped(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            stream = MessageStream(sock)
            stream.send(request(1, "hello", version=PROTOCOL_VERSION))
            assert stream.recv()["ok"] is True
            stream.send(request(2, "sync"))
            reply = stream.recv()
            assert reply["ok"] is False
            assert reply["error"]["type"] == "UnknownOperation"
            assert sock.recv(1) == b""
            sock.close()

    def test_double_hello_rejected(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path) as client:
                with pytest.raises(SessionStateError):
                    client._call("hello", version=PROTOCOL_VERSION)

    def test_malformed_frame_gets_error_reply(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            sock.sendall(b"\x00\x00\x00\x03{{{")
            stream = MessageStream(sock)
            reply = stream.recv()
            assert reply["ok"] is False
            assert reply["error"]["type"] == "FrameError"
            # The server drops the poisoned connection afterwards.
            assert sock.recv(1) == b""
            sock.close()
            assert _wait_until(lambda: server.session_count == 0)


class TestAdmissionControl:
    def test_global_backpressure(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, max_inflight=0)):
            with SlateClient(sock_path) as client:
                with pytest.raises(ServerBusyError) as excinfo:
                    client.launch("BS")
                assert excinfo.value.retry_after > 0

    def test_per_session_backpressure(self, sock_path):
        with ServerThread(
            ServeConfig(socket_path=sock_path, session_inflight=0)
        ):
            with SlateClient(sock_path) as client:
                with pytest.raises(SessionLimitError):
                    client.launch("BS")

    def test_session_table_bound(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, max_sessions=1)):
            with SlateClient(sock_path) as first:
                second = SlateClient(sock_path, connect_retries=0)
                with pytest.raises(ServerBusyError):
                    second.connect()
                assert first.ping()["pong"]

    def test_rejections_are_counted(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, max_inflight=0)) as server:
            busy0 = server._m_busy.value
            with SlateClient(sock_path) as client:
                for _ in range(3):
                    with pytest.raises(ServerBusyError):
                        client.launch("BS")
            assert server._m_busy.value - busy0 == 3


class TestConcurrentSessions:
    N_CLIENTS = 8
    LAUNCHES = 4

    def test_many_clients_no_leaked_sessions(self, sock_path):
        """N clients connect/launch/disconnect concurrently; afterwards the
        daemon holds zero sessions and the scheduler is fully drained."""
        config = ServeConfig(socket_path=sock_path)
        kernels = ["BS", "GS", "MM", "RG", "TR"]
        errors: list[str] = []

        def one_client(i: int) -> None:
            try:
                with SlateClient(sock_path, name=f"c{i}") as client:
                    for j in range(self.LAUNCHES):
                        reply = client.launch(kernels[(i + j) % len(kernels)])
                        assert reply.sim_finished >= reply.sim_submitted
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        with ServerThread(config) as server:
            # The metrics registry is process-wide: assert on deltas.
            launches0 = server._m_launches.value
            opened0 = server._m_opened.value
            reaped0 = server._m_reaped.value
            threads = [
                threading.Thread(target=one_client, args=(i,))
                for i in range(self.N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert _wait_until(lambda: server.session_count == 0)
            assert _wait_until(lambda: server.inflight == 0)
            sched = server.stats()["scheduler"]
            assert sched["waiting"] == 0 and sched["running"] == 0
            assert server._m_launches.value - launches0 == self.N_CLIENTS * self.LAUNCHES
            assert server._m_opened.value - opened0 == self.N_CLIENTS
            assert server._m_reaped.value - reaped0 == self.N_CLIENTS

    def test_concurrent_clients_actually_corun(self, sock_path):
        """Concurrent served clients co-run on the simulated GPU — the whole
        point of funneling into one scheduler."""
        barrier = threading.Barrier(4)

        def one_client(i: int) -> None:
            with SlateClient(sock_path, name=f"c{i}") as client:
                barrier.wait(timeout=30)
                for _ in range(6):
                    client.launch("BS" if i % 2 else "RG")

        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            threads = [threading.Thread(target=one_client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert server.stats()["scheduler"]["corun_launches"] > 0

    def test_mid_flight_disconnect_reaps_after_drain(self, sock_path):
        """A client that fires a launch and vanishes must not leak its
        session or wedge the scheduler."""
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            stream = MessageStream(sock)
            stream.send(request(1, "hello", version=PROTOCOL_VERSION))
            assert stream.recv()["ok"]
            # Fire a launch and slam the connection without reading.
            stream.send(request(2, "launch", kernel="MM"))
            sock.close()
            assert _wait_until(lambda: server.session_count == 0), (
                f"leaked sessions: {server.session_count}"
            )
            assert server.inflight == 0
            sched = server.stats()["scheduler"]
            assert sched["waiting"] == 0 and sched["running"] == 0
            # The launch itself drained through the scheduler.
            assert sched["decisions"] >= 1

    def test_disconnect_without_bye_reaps(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            client = SlateClient(sock_path)
            client.connect()
            client.launch("BS")
            # Close the raw socket: no bye frame.
            client._stream.sock.close()
            assert _wait_until(lambda: server.session_count == 0)

    def test_rate_trace_bounded_by_log_limit(self, sock_path):
        """Every epoch samples the device rate trace; a long-lived daemon
        must keep only its last ``log_limit`` samples."""
        limit = 8
        config = ServeConfig(socket_path=sock_path, shards=2, log_limit=limit)
        with ServerThread(config) as server:
            with SlateClient(sock_path, name="a") as a, SlateClient(
                sock_path, name="b"
            ) as b:
                for _ in range(3 * limit):
                    a.launch("BS")
                    b.launch("RG")
            gpus = [shard.runtime.gpu for shard in server.shards]
            assert max(len(gpu.rate_trace) for gpu in gpus) == limit
            for gpu in gpus:
                assert len(gpu.rate_trace) <= limit


class TestConnectionContract:
    """One request in flight per connection, replies in request order,
    bounded buffering, and a failed reply that does not end the session."""

    def test_pipelined_launches_are_served_one_at_a_time(self, sock_path):
        config = ServeConfig(socket_path=sock_path)
        launches = 40
        # Served concurrently, launch 33 would be refused with SessionLimit.
        assert launches > config.session_inflight
        frames = [request(0, "hello", version=PROTOCOL_VERSION)]
        frames += [request(i, "launch", kernel="MM") for i in range(1, launches + 1)]
        with ServerThread(config):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(sock_path)
                sock.settimeout(30.0)
                sock.sendall(b"".join(encode_frame(f) for f in frames))
                stream = MessageStream(sock)
                replies = [stream.recv() for _ in frames]
        assert [r["ok"] for r in replies] == [True] * len(frames), [
            r["error"] for r in replies if not r["ok"]
        ]
        assert [r["id"] for r in replies] == list(range(launches + 1))

    def test_a_client_that_does_not_read_is_blocked_not_buffered(self, sock_path):
        """The daemon stops reading while its replies go unread, so the
        writer blocks once the socket buffers fill; then every reply
        arrives, in order."""
        count = 20_000
        data = b"".join(encode_frame(request(i, "ping")) for i in range(count))
        assert len(data) == 788_890
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(sock_path)
                sock.settimeout(1.0)
                sent = 0
                try:
                    while sent < len(data):
                        sent += sock.send(data[sent:])
                except TimeoutError:
                    pass
                assert sent < len(data)
                ids: list = []

                def read_replies() -> None:
                    stream = MessageStream(sock)
                    for _ in range(count):
                        reply = stream.recv()
                        assert reply["ok"]
                        ids.append(reply["id"])

                sock.settimeout(60.0)
                reader = threading.Thread(target=read_replies)
                reader.start()
                sock.sendall(data[sent:])
                reader.join(timeout=60.0)
                assert not reader.is_alive()
        assert ids == list(range(count))

    def test_failed_reply_is_typed_and_the_connection_serves_on(
        self, sock_path, monkeypatch
    ):
        class FailingOnce:
            """The launch-reply histogram, failing its first observation."""

            def __init__(self, histogram) -> None:
                self.histogram = histogram
                self.failed = False

            def observe(self, value) -> None:
                if not self.failed:
                    self.failed = True
                    raise RuntimeError("reply build failed")
                self.histogram.observe(value)

        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            monkeypatch.setattr(
                server, "_h_sim_latency", FailingOnce(server._h_sim_latency)
            )
            with SlateClient(sock_path) as client:
                with pytest.raises(ServerError, match="reply build failed"):
                    client.launch("MM")
                assert client.launch("MM").kernel == "MM"
                assert client.stats()["session"]["errors"] == 1
            assert _wait_until(lambda: server.session_count == 0)
            assert server.inflight == 0


class TestServedLaunchReuse:
    """A served launch reuses its kernel's spec and device record."""

    @pytest.mark.parametrize("shards,hint", [(1, None), (2, "MM")])
    def test_repeat_launches_share_one_allocation_record(
        self, sock_path, shards, hint
    ):
        config = ServeConfig(socket_path=sock_path, shards=shards)
        with ServerThread(config) as server:
            with SlateClient(sock_path, kernel_hint=hint) as client:
                for _ in range(10):
                    client.launch("MM")
                gpu = server.shards[client.shard].runtime.gpu
                assert len(gpu._allocations) == 1


class TestDriverAndLedger:
    def test_one_event_per_pump_still_serves(self, sock_path):
        """With one event per loop callback every launch needs the
        driver to reschedule itself; all of them still complete."""
        errors: list[str] = []

        def one_client(i: int) -> None:
            try:
                with SlateClient(sock_path, name=f"c{i}") as client:
                    for kernel in ("MM", "RG", "BS"):
                        assert client.launch(kernel).kernel == kernel
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        batch = SimDriver.STEP_BATCH
        SimDriver.STEP_BATCH = 1
        try:
            with ServerThread(ServeConfig(socket_path=sock_path)):
                threads = [
                    threading.Thread(target=one_client, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert not errors, errors
                with SlateClient(sock_path) as client:
                    stats = client.stats()["server"]
                assert stats["sim_pending"] == 0
                assert stats["sim_errors"] == 0
        finally:
            SimDriver.STEP_BATCH = batch

    @staticmethod
    def _check_ledger(server) -> int:
        """Assert the stats ledger equals a recount of the session table;
        returns the in-flight total."""
        stats = server.stats()
        sessions = list(server._sessions.values())
        assert stats["inflight"] == sum(s.inflight for s in sessions)
        assert stats["sessions"] == len(sessions)
        for row in stats["shards"]:
            resident = [s for s in sessions if s.shard == row["shard"]]
            assert row["inflight"] == sum(s.inflight for s in resident)
            assert row["sessions"] == len(resident)
        return stats["inflight"]

    def test_ledger_matches_the_session_table_and_drains(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=2)
        done = threading.Event()
        errors: list[str] = []

        async def sample(server) -> int:
            # Runs on the daemon's loop between its callbacks, so every
            # sample sees a consistent state.
            peak = 0
            while not done.is_set():
                peak = max(peak, self._check_ledger(server))
                await asyncio.sleep(0)
            return peak

        def one_client(i: int) -> None:
            try:
                with SlateClient(sock_path, name=f"c{i}") as client:
                    for _ in range(8):
                        client.launch("MM" if i else "RG")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        thread = ServerThread(config)
        with thread as server:
            sampler = asyncio.run_coroutine_threadsafe(sample(server), thread._loop)
            threads = [
                threading.Thread(target=one_client, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            # The third session fires a launch and vanishes mid-flight.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock.settimeout(5.0)
            stream = MessageStream(sock)
            stream.send(request(1, "hello", version=PROTOCOL_VERSION))
            assert stream.recv()["ok"]
            stream.send(request(2, "launch", kernel="MM"))
            sock.close()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors
            assert _wait_until(lambda: server.session_count == 0)
            done.set()
            assert sampler.result(timeout=10) >= 1
            assert self._check_ledger(server) == 0
            for row in server.stats()["shards"]:
                assert row["inflight"] == 0 and row["sessions"] == 0


class TestPlacementStaleness:
    """`serve.shard.*.placement_stale` tracks hint/observed class divergence."""

    @staticmethod
    def _stale_gauge(client, shard=0):
        gauges = client.metrics()["registry"]["gauges"]
        return gauges.get(f"serve.shard.{shard}.placement_stale", 0)

    def test_divergent_launches_flip_gauge_and_back(self, sock_path):
        # MM is class M_M, RG is L_C (offline profiles), so a session hinted
        # MM that launches RG has gone stale — until it launches MM again.
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path, name="drift", kernel_hint="MM") as client:
                client.launch("MM")
                assert self._stale_gauge(client) == 0
                client.launch("RG")
                assert self._stale_gauge(client) == 1
                # Repeat launches of the divergent class don't double-count.
                client.launch("RG")
                assert self._stale_gauge(client) == 1
                client.launch("MM")
                assert self._stale_gauge(client) == 0

    def test_hintless_sessions_never_go_stale(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with SlateClient(sock_path, name="nohint") as client:
                client.launch("RG")
                client.launch("MM")
                assert self._stale_gauge(client) == 0

    def test_reaping_a_stale_session_decrements(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path)) as server:
            with SlateClient(sock_path, name="watcher") as watcher:
                leaver = SlateClient(sock_path, name="leaver", kernel_hint="MM")
                leaver.connect()
                leaver.launch("RG")
                assert self._stale_gauge(watcher) == 1
                # Drop the connection without a bye: the reaper must clear
                # the stale flag, not just the session row.
                leaver._stream.sock.close()
                assert _wait_until(lambda: server.session_count == 1)
                assert self._stale_gauge(watcher) == 0


class TestServerShutdown:
    def test_shutdown_with_connected_client(self, sock_path):
        thread = ServerThread(ServeConfig(socket_path=sock_path))
        server = thread.start()
        client = SlateClient(sock_path)
        client.connect()
        client.launch("RG")
        thread.stop()  # graceful: drains, closes the open connection
        assert server.session_count == 0
        sched = server.stats()["scheduler"]
        assert sched["waiting"] == 0 and sched["running"] == 0
        client.close()

    def test_socket_removed_on_shutdown(self, sock_path):
        import os

        with ServerThread(ServeConfig(socket_path=sock_path)):
            assert os.path.exists(sock_path)
        assert not os.path.exists(sock_path)

    def test_duration_bounded_serve(self, sock_path):
        import asyncio

        from repro.serve.server import SlateServer

        server = SlateServer(
            ServeConfig(socket_path=sock_path, duration=0.2)
        )
        t0 = time.monotonic()
        asyncio.run(server.serve_forever())
        assert 0.1 < time.monotonic() - t0 < 10.0
