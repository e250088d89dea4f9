"""Router tests: placement invariants, determinism, affinity, draining,
sharded serving end-to-end.

The property tests pin the two contracts the sharding design leans on:
the router never co-locates classes the active policy's
``placement_compatible`` forbids while a compatible shard exists, and a
fixed arrival sequence always places identically.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.client import SlateClient
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

    def test_class_aware_is_contention_alias(self):
        assert PlacementRouter(2, placement="class-aware").placement == "contention"


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
