"""Router tests: placement invariants, determinism, affinity, draining,
sharded serving end-to-end.

The property tests pin the two contracts the sharding design leans on:
the router never co-locates classes the active policy's
``placement_compatible`` forbids while a compatible shard exists, and a
fixed arrival sequence always places identically.
"""

import dataclasses
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace as obs_trace
from repro.serve.client import SlateClient
from repro.serve.loadgen import LoadGenConfig, run_loadgen
from repro.serve.protocol import (
    BackpressureError,
    ProtocolError,
    ServerBusyError,
    ShardDrainingError,
)
from repro.serve.router import PlacementRouter
from repro.serve.server import ServeConfig, ServerThread
from repro.slate.classify import IntensityClass as C

CLASSES = list(C)


@pytest.fixture
def sock_path(tmp_path):
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


class TestPlacementProperties:
    @given(
        candidates=st.lists(st.sampled_from(CLASSES), min_size=1, max_size=24),
        num_shards=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_colocates_incompatible_when_avoidable(
        self, candidates, num_shards
    ):
        """Whenever some shard could take the candidate without a policy
        conflict, the chosen shard has no incompatible resident."""
        router = PlacementRouter(num_shards, placement="contention")
        policy = router.policy
        for i, candidate in enumerate(candidates):
            conflict_free = [
                book
                for book in router.shards
                if all(
                    policy.placement_compatible(resident, candidate)
                    for resident in book.residents.values()
                )
            ]
            name = f"s{i}"
            index = router.pick(name, candidate)
            if conflict_free:
                chosen = router.shards[index]
                assert all(
                    policy.placement_compatible(resident, candidate)
                    for resident in chosen.residents.values()
                ), (
                    f"placed {candidate} with incompatible residents "
                    f"{list(chosen.residents.values())} while shards "
                    f"{[b.index for b in conflict_free]} were conflict-free"
                )
            router.note_open(index, name, candidate)

    @given(
        candidates=st.lists(st.sampled_from(CLASSES), min_size=1, max_size=24),
        num_shards=st.integers(min_value=1, max_value=5),
        placement=st.sampled_from(["contention", "least-loaded", "round-robin"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_sequences_place_identically(
        self, candidates, num_shards, placement
    ):
        def run():
            router = PlacementRouter(num_shards, placement=placement)
            placements = []
            for i, candidate in enumerate(candidates):
                index = router.pick(f"s{i}", candidate)
                router.note_open(index, f"s{i}", candidate)
                placements.append(index)
            return placements

        assert run() == run()


class TestRouterUnit:
    def test_contention_separates_antagonists_and_colocates_friends(self):
        # MM-class (M_M) tenants must not share; RG-class (L_C) co-runs
        # with anyone under Table I.
        router = PlacementRouter(2, placement="contention")
        first = router.pick("a", C.M_M)
        router.note_open(first, "a", C.M_M)
        second = router.pick("b", C.M_M)
        router.note_open(second, "b", C.M_M)
        assert {first, second} == {0, 1}
        third = router.pick("c", C.L_C)
        assert third == first  # compatible: ties break toward shard 0
        router.note_open(third, "c", C.L_C)

    def test_affinity_sticks_sessions_to_one_shard(self):
        router = PlacementRouter(4, placement="least-loaded")
        a = router.pick("a", None, affinity="tenant-1")
        router.note_open(a, "a")
        # Different session, same key: lands with "a" although other
        # shards are emptier.
        b = router.pick("b", None, affinity="tenant-1")
        assert b == a
        c = router.pick("c", None, affinity="tenant-2")
        assert c != a

    def test_affinity_moves_off_draining_shard(self):
        router = PlacementRouter(2, placement="least-loaded")
        a = router.pick("a", None, affinity="k")
        router.note_open(a, "a")
        router.set_draining(a)
        b = router.pick("b", None, affinity="k")
        assert b != a

    def test_pin_validation(self):
        router = PlacementRouter(2)
        assert router.pick("a", None, pin=1) == 1
        with pytest.raises(ProtocolError):
            router.pick("b", None, pin=7)
        router.set_draining(1)
        with pytest.raises(ShardDrainingError):
            router.pick("c", None, pin=1)

    def test_all_draining_is_backpressure(self):
        router = PlacementRouter(2)
        router.set_draining(0)
        router.set_draining(1)
        with pytest.raises(ShardDrainingError):
            router.pick("a", None)

    def test_round_robin_skips_draining(self):
        router = PlacementRouter(3, placement="round-robin")
        router.set_draining(1)
        picks = [router.pick(f"s{i}", None) for i in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_rejects_unknown_placement_and_bad_shard_count(self):
        with pytest.raises(ValueError):
            PlacementRouter(2, placement="psychic")
        with pytest.raises(ValueError):
            PlacementRouter(0)

    def test_class_aware_is_not_a_router_placement(self):
        # ``class-aware`` names SlateCluster's device placement; the router
        # scores shards with ``contention`` and accepts no alias for it.
        with pytest.raises(ValueError):
            PlacementRouter(2, placement="class-aware")


class TestShardedServer:
    def test_sessions_spread_and_stats_report_shards(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=3)
        with ServerThread(config) as server:
            clients = [
                SlateClient(sock_path, name=f"c{i}", kernel_hint="MM")
                for i in range(3)
            ]
            try:
                shards = set()
                for client in clients:
                    hello = client.connect()
                    assert hello["shard"] == client.shard
                    shards.add(client.shard)
                    assert client.launch("MM").kernel == "MM"
                # MM is M_M-class: antagonists spread one per shard.
                assert shards == {0, 1, 2}
                stats = clients[0].stats()["server"]
                assert stats["shard_count"] == 3
                assert len(stats["shards"]) == 3
                assert all(b["placed"] == 1 for b in stats["shards"])
            finally:
                for client in clients:
                    client.close()
            assert _wait_until(lambda: server.session_count == 0)

    def test_contention_colocates_corunnable_classes(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=2, placement="contention")
        with ServerThread(config):
            with SlateClient(sock_path, name="mm1", kernel_hint="MM") as a, \
                    SlateClient(sock_path, name="mm2", kernel_hint="MM") as b, \
                    SlateClient(sock_path, name="rg", kernel_hint="RG") as c:
                assert {a.shard, b.shard} == {0, 1}
                # RG co-runs with MM under Table I: joins a busy shard
                # instead of forcing a third.
                assert c.shard in (a.shard, b.shard)

    def test_deterministic_routing_under_fixed_seed(self, sock_path, tmp_path):
        hints = ["MM", "RG", "BS", "TR", "GS", "MM"]

        def run(path):
            config = ServeConfig(socket_path=path, shards=3)
            placements = []
            with ServerThread(config):
                for i, hint in enumerate(hints):
                    with SlateClient(path, name=f"c{i}", kernel_hint=hint) as cl:
                        placements.append(cl.shard)
            return placements

        first = run(sock_path)
        second = run(str(tmp_path / "slate2.sock"))
        assert first == second

    def test_session_affinity_over_the_wire(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=4)
        with ServerThread(config):
            with SlateClient(sock_path, name="a", affinity="job-9") as a, \
                    SlateClient(sock_path, name="b", affinity="job-9") as b:
                assert a.shard == b.shard

    def test_ping_reports_the_fleet_sim_clock(self, sock_path):
        """``ping`` answers with the furthest-ahead shard's clock, the same
        value ``stats`` reports, not shard 0's."""
        with ServerThread(ServeConfig(socket_path=sock_path, shards=2)):
            with SlateClient(sock_path, name="pinned", shard=1) as client:
                client.launch("RG")
                pong = client.ping()
                stats = client.stats()["server"]
        assert stats["sim_time"] > 0.0
        assert pong["sim_time"] == stats["sim_time"]

    def test_hinted_kernel_is_profiled_offline_at_hello(self, sock_path):
        """A ``kernel_hint`` outside the preloaded benchmark kernels gets
        its offline profile at ``hello``: the first launch runs solo
        because the device is idle, not as a first-run profiling pass."""
        with ServerThread(ServeConfig(socket_path=sock_path)):
            with obs_trace.capture() as sink:
                with SlateClient(sock_path, name="pf", kernel_hint="PF") as client:
                    client.launch("PF")
        decisions = [
            (e.name, e.args["kernel"], e.args["reason"])
            for e in sink.events()
            if e.name.startswith("decide.")
        ]
        assert decisions == [("decide.solo", "PF", "device idle")]

    def test_router_place_stamped_with_the_placed_shards_clock(self, sock_path):
        with ServerThread(ServeConfig(socket_path=sock_path, shards=2)) as server:
            with SlateClient(sock_path, name="busy", shard=0) as busy:
                busy.launch("RG")
            assert server.shards[0].env.now > 0.0
            with obs_trace.capture() as sink:
                with SlateClient(sock_path, name="idle", shard=1):
                    pass
        places = [e for e in sink.events() if e.name == "router.place"]
        assert [(e.args["shard"], e.ts) for e in places] == [(1, 0.0)]


#: Antagonist ladder: MM (M_M class) never co-runs with itself under
#: Table I; RG (L_C) co-runs with anything.  Connections open one after
#: another in this order, so both placements are deterministic.
LADDER = ("MM", "MM", "RG", "RG", "MM", "MM", "RG", "RG")
LADDER_LAUNCHES = 60
#: Large MM task size, so device time dominates wire round-trips and the
#: co-location penalty shows in the simulated latency.
LADDER_MM_TASK_SIZE = 4096
#: Mean MM sim latency (s) of the sim-time ladder under each placement.
RR_MEAN = 0.17948013130433432
CONTENTION_MEAN = 0.09016267928111597


def _drive_ladder(sock_path, placement):
    """Serve the ladder on 4 shards: ``(shard of each client, MM sim
    latencies, completed launches)``."""
    config = ServeConfig(socket_path=sock_path, shards=4, placement=placement)
    with ServerThread(config):
        clients = []
        for index, kernel in enumerate(LADDER):
            client = SlateClient(sock_path, name=f"c{index}", kernel_hint=kernel)
            client.connect()
            clients.append(client)

        def drive(index):
            kernel = LADDER[index]
            task_size = LADDER_MM_TASK_SIZE if kernel == "MM" else None
            return [
                clients[index].launch(kernel, task_size=task_size, busy_retries=50)
                for _ in range(LADDER_LAUNCHES)
            ]

        with ThreadPoolExecutor(len(clients)) as pool:
            replies = list(pool.map(drive, range(len(clients))))
        for client in clients:
            client.close()
    mm = [
        reply.sim_latency
        for kernel, batch in zip(LADDER, replies)
        if kernel == "MM"
        for reply in batch
    ]
    return [client.shard for client in clients], mm, sum(map(len, replies))


def _sim_time_ladder(placement):
    """The ladder on 4 shards in sim time: ``(shard of each client, MM
    sim latencies)``.

    Placement is the daemon's (``PlacementRouter.pick`` and ``note_open``
    with each client's hinted class, clients in ladder order), each shard
    is a ``SlateRuntime`` built as ``InLoopShard`` builds it under the
    default ``ServeConfig``, and each client is a sim process that issues
    its next launch when the previous one completes.  A latency runs from
    the sim time before ``session.launch`` to completion, as the daemon
    measures it.  No socket, thread or wall clock is involved, so the
    result is exact.
    """
    from repro.kernels.registry import SHORT_NAMES, by_name
    from repro.sim import Environment
    from repro.slate.daemon import SlateRuntime

    router = PlacementRouter(4, placement=placement)
    runtimes = []
    for _ in range(4):
        runtime = SlateRuntime(
            Environment(), policy="table1", log_limit=256, rate_trace_limit=256
        )
        runtime.preload_profiles([by_name(n) for n in SHORT_NAMES])
        runtimes.append(runtime)
    mm: list[float] = []

    def client(env, session, kernel):
        spec = by_name(kernel)
        task_size = LADDER_MM_TASK_SIZE if kernel == "MM" else None
        for _ in range(LADDER_LAUNCHES):
            t0 = env.now
            ticket = yield from session.launch(spec, task_size=task_size)
            if not ticket.done.triggered:
                yield ticket.done
            if kernel == "MM":
                mm.append(env.now - t0)

    shards = []
    for index, kernel in enumerate(LADDER):
        name = f"c{index}#{index + 1}"
        candidate = router.classify(kernel)
        shard = router.pick(name, candidate)
        router.note_open(shard, name, candidate)
        shards.append(shard)
        runtime = runtimes[shard]
        session = runtime.create_session(name)
        runtime.env.process(client(runtime.env, session, kernel))
    for runtime in runtimes:
        runtime.env.run()
    assert len(mm) == LADDER.count("MM") * LADDER_LAUNCHES
    return shards, mm


#: The shard-scaling load: 64 clients, each 5 warmup + 40 measured
#: requests planned by ``plan_client(seed=0)``.
SCALING_LOAD = LoadGenConfig(
    socket_path="", clients=64, requests=40, warmup=5, seed=0
)


def _sim_time_closed_loop(shards: int) -> float:
    """Aggregate sim req/s of ``SCALING_LOAD`` run entirely in sim time.

    Placement is the daemon's (``PlacementRouter.pick`` and ``note_open``
    with each client's hinted class, clients in index order), each shard
    is a ``SlateRuntime`` built as ``InLoopShard`` builds it, and each
    client is a sim process that issues its next launch when the previous
    one completes.  No socket, thread or wall clock is involved, so the
    result is exact.  The rate is loadgen's: per shard, measured launches
    over the span from the first measured submit to the last finish,
    summed over shards.
    """
    from repro.kernels.registry import SHORT_NAMES, by_name
    from repro.serve.loadgen import plan_client
    from repro.sim import Environment
    from repro.slate.daemon import SlateRuntime

    cfg = SCALING_LOAD
    router = PlacementRouter(shards)
    runtimes = []
    for _ in range(shards):
        runtime = SlateRuntime(
            Environment(), policy="table1", log_limit=256, rate_trace_limit=256
        )
        runtime.preload_profiles([by_name(n) for n in SHORT_NAMES])
        runtimes.append(runtime)
    # Per shard: [first measured submit, last finish, measured launches].
    spans = [[float("inf"), 0.0, 0] for _ in range(shards)]

    def client(env, session, kernels, span):
        for i, kernel in enumerate(kernels):
            t0 = env.now
            ticket = yield from session.launch(by_name(kernel))
            yield ticket.done
            if i >= cfg.warmup:
                span[0] = min(span[0], t0)
                span[1] = max(span[1], env.now)
                span[2] += 1

    for index in range(cfg.clients):
        kernels, _ = plan_client(cfg, index)
        name = f"loadgen-{index}#{index + 1}"
        candidate = router.classify(kernels[0])
        shard = router.pick(name, candidate)
        router.note_open(shard, name, candidate)
        runtime = runtimes[shard]
        session = runtime.create_session(name)
        runtime.env.process(client(runtime.env, session, kernels, spans[shard]))
    for runtime in runtimes:
        runtime.env.run()
    assert sum(n for _, _, n in spans) == cfg.clients * cfg.requests
    return sum(n / (last - first) for first, last, n in spans)


class TestShardScalingAndPlacement:
    """The simulated results of the sharded daemon under real load."""

    def test_eight_shards_give_five_times_the_sim_throughput(self):
        """N shards are N independent simulated GPUs, so aggregate
        simulated throughput scales with the shard count.  Asserted on the
        sim-time closed loop: a served run's sim throughput depends on how
        many launches each ``SimDriver._pump`` gathers, which is host
        timing (see ``test_served_load_completes_on_one_and_eight_shards``).
        """
        base = _sim_time_closed_loop(1)
        eight = _sim_time_closed_loop(8)
        assert base == 407.9493700089602
        assert eight == 3267.848498375421
        assert eight >= 5.0 * base

    def test_served_load_completes_on_one_and_eight_shards(
        self, tmp_path, record_property
    ):
        """64 client processes x 40 requests are served completely, with
        no errors, on 1 shard and on 8.  The served 8-shard/1-shard sim
        throughput ratio moves with host batching, so it is reported
        (``served_sim_ratio``), not asserted."""

        def sim_throughput(shards):
            path = str(tmp_path / f"s{shards}.sock")
            with ServerThread(ServeConfig(socket_path=path, shards=shards)):
                report = run_loadgen(
                    dataclasses.replace(SCALING_LOAD, socket_path=path)
                )
            assert report.completed == 64 * 40
            assert report.errors == 0, report.error_messages
            assert len(report.shards) == shards
            return report.sim_requests_per_s

        base = sim_throughput(1)
        assert base > 0
        ratio = sim_throughput(8) / base
        record_property("served_sim_ratio", ratio)
        print(f"served 8-shard/1-shard sim throughput ratio: {ratio:.2f}")

    def test_contention_placement_beats_round_robin_on_antagonists(self):
        """Round-robin pairs MM with MM, whose launches serialize on the
        simulated device; contention placement pairs each MM with an RG.
        Compared on MM sim latency in the sim-time ladder: a served run's
        sim latencies depend on how each ``SimDriver._pump`` batches
        arrivals, which is host timing (see
        ``test_served_ladder_places_and_completes``)."""
        rr_shards, rr_mm = _sim_time_ladder("round-robin")
        shards, mm = _sim_time_ladder("contention")
        assert rr_shards == [0, 1, 2, 3, 0, 1, 2, 3]
        by_shard: dict[int, list[str]] = {}
        for kernel, shard in zip(LADDER, shards):
            by_shard.setdefault(shard, []).append(kernel)
        assert all(sorted(v) == ["MM", "RG"] for v in by_shard.values()), by_shard
        assert statistics.mean(rr_mm) == RR_MEAN
        assert statistics.mean(mm) == CONTENTION_MEAN
        assert statistics.mean(mm) <= statistics.mean(rr_mm) * 0.95

    def test_served_ladder_places_and_completes(self, tmp_path, record_property):
        """The served ladder completes every launch under both placements
        and places as the sim-time ladder does.  Its MM sim-latency ratio
        moves with host batching, so it is reported
        (``served_mm_latency_ratio``), not asserted."""
        rr_shards, rr_mm, rr_done = _drive_ladder(
            str(tmp_path / "rr.sock"), "round-robin"
        )
        shards, mm, done = _drive_ladder(str(tmp_path / "ct.sock"), "contention")
        assert rr_done == done == len(LADDER) * LADDER_LAUNCHES
        assert rr_shards == _sim_time_ladder("round-robin")[0]
        assert shards == _sim_time_ladder("contention")[0]
        ratio = statistics.mean(mm) / statistics.mean(rr_mm)
        record_property("served_mm_latency_ratio", ratio)
        print(f"served contention/round-robin MM sim latency ratio: {ratio:.3f}")


class TestShardDraining:
    def test_drain_completes_inflight_and_rejects_new_work(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=2)
        with ServerThread(config) as server:
            with SlateClient(sock_path, name="pinned", shard=0) as client:
                errors = []
                completed = []
                drained = threading.Event()

                def hammer():
                    while not drained.is_set():
                        try:
                            completed.append(client.launch("RG"))
                        except BackpressureError as exc:
                            errors.append(exc)
                            return

                worker = threading.Thread(target=hammer)
                worker.start()
                _wait_until(lambda: len(completed) > 0)
                server.request_drain(0)
                worker.join(timeout=30.0)
                drained.set()
                assert not worker.is_alive()
                # In-flight launches completed; only the post-drain launch
                # was turned away, with typed backpressure.
                assert completed
                assert len(errors) == 1
                assert isinstance(errors[0], ShardDrainingError)
                # New sessions route around the drained shard.
                with SlateClient(sock_path, name="late") as late:
                    assert late.shard == 1
                    assert late.launch("RG").kernel == "RG"
                # Pinning to the drained shard is refused.
                refused = SlateClient(sock_path, name="pin0", shard=0)
                with pytest.raises(ShardDrainingError):
                    refused.connect()
            assert _wait_until(lambda: server.session_count == 0)


class TestAggregateAdmission:
    def test_global_cap_spans_shards(self, sock_path):
        config = ServeConfig(socket_path=sock_path, shards=2, max_inflight=0)
        with ServerThread(config):
            with SlateClient(sock_path, name="a", shard=0) as a, \
                    SlateClient(sock_path, name="b", shard=1) as b:
                for client in (a, b):
                    with pytest.raises(ServerBusyError):
                        client.launch("BS")

    def test_per_shard_cap_is_enforced(self, sock_path):
        config = ServeConfig(
            socket_path=sock_path, shards=2, max_inflight=256, shard_inflight=0
        )
        with ServerThread(config):
            with SlateClient(sock_path, name="a") as client:
                with pytest.raises(ServerBusyError) as excinfo:
                    client.launch("BS")
                assert "shard" in str(excinfo.value)

    def test_default_split_keeps_single_shard_behavior(self):
        assert ServeConfig(socket_path="x", max_inflight=256).shard_inflight_limit() == 256
        assert ServeConfig(
            socket_path="x", shards=4, max_inflight=256
        ).shard_inflight_limit() == 64
        assert ServeConfig(
            socket_path="x", shards=3, max_inflight=8
        ).shard_inflight_limit() == 3  # ceiling division
