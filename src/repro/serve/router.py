"""Shard pool and workload-aware placement router for the serving daemon.

The single-``SlateCluster`` daemon serializes every request behind one
scheduler and one discrete-event engine.  Sharding splits the fleet into
N independent *shards* — each owns its own :class:`~repro.sim.Environment`,
:class:`~repro.slate.cluster.SlateCluster`, scheduler, and
:class:`~repro.serve.server.SimDriver` — fronted by a
:class:`PlacementRouter` that decides, once per session at ``hello``,
which shard a client lands on.  Two shard flavours:

in-loop (default)
    Each shard is a set of objects plus its own driver task inside the
    daemon's asyncio loop (:class:`InLoopShard`).  One process, shared
    wall clock, fully-consistent router bookkeeping.
``--shard-procs``
    Each shard is a *real OS process* running a complete single-shard
    daemon on its own Unix socket (:class:`ShardProcess`), talking the
    ordinary wire protocol shard-to-router.  Version-2 clients are
    *redirected*: the router answers their ``hello`` with the shard's
    socket path and the client reconnects there, taking the router out
    of the data path entirely.  Version-1 clients are *proxied*: the
    router forwards their ``hello`` and then pumps bytes both ways for
    the life of the connection.

Placement
---------
The router scores shards with the active scheduling policy's
:meth:`~repro.slate.policy.SchedulingPolicy.placement_score` — the same
Table-I machinery that decides per-launch co-runs, lifted to the fleet
level (see :mod:`repro.slate.placement`):

``contention`` (default)
    Contention-penalized least-loaded: co-locate compatible kernel
    classes, spread antagonists, break ties toward the lighter shard.
``least-loaded``
    Fewest (sessions + in-flight launches), ignoring classes.
``round-robin``
    Shards in turn — the contention-blind baseline.

Placement is deterministic for a fixed arrival sequence and seed, and
honours *session affinity* (an opaque ``affinity`` key in ``hello``
pins same-keyed sessions to one shard) and *draining* (a draining shard
accepts no placements and rejects new launches while its in-flight work
completes).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import signal
import time
from collections import deque
from typing import Optional

from repro.config import TITAN_XP
from repro.kernels.registry import by_name
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, ShardDrainingError
from repro.slate.placement import ShardView, choose_shard
from repro.slate.policy import make_policy
from repro.slate.profiler import offline_profile

__all__ = [
    "ROUTER_PLACEMENTS",
    "InLoopShard",
    "PlacementRouter",
    "RouteDecision",
    "ShardProcess",
    "shard_socket_path",
]

#: Router-level placement policies (``repro serve --placement``).
#: ``class-aware`` is accepted as an alias of ``contention`` so existing
#: multi-device invocations keep working.
ROUTER_PLACEMENTS = ("contention", "round-robin", "least-loaded")


def shard_socket_path(socket_path: str, index: int) -> str:
    """The per-shard daemon socket derived from the router's socket."""
    return f"{socket_path}.shard{index}"


class RouteDecision:
    """One routing decision, kept (bounded) for tests and traces."""

    __slots__ = ("session", "shard", "candidate", "score", "reason")

    def __init__(self, session, shard, candidate, score, reason) -> None:
        self.session = session
        self.shard = shard
        self.candidate = candidate
        self.score = score
        #: "placement" | "affinity" | "pin"
        self.reason = reason


class _ShardBook:
    """Router-side bookkeeping for one shard (both shard flavours)."""

    __slots__ = (
        "index", "residents", "sessions", "inflight", "draining", "placed",
        "placed_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        #: session name -> intensity class (hint-less sessions absent).
        self.residents: dict = {}
        self.sessions = 0
        self.inflight = 0
        self.draining = False
        #: lifetime placements (never decremented; diagnostics).
        self.placed = 0
        #: monotonic timestamp of the last placement (proc-mode refresh
        #: grace window).
        self.placed_at = 0.0

    @property
    def load(self) -> float:
        return float(self.sessions + self.inflight)


class PlacementRouter:
    """Scores shards and assigns sessions; pure bookkeeping, no I/O.

    The router is deliberately synchronous and deterministic: identical
    arrival sequences (names, hints, affinities) against identical seeds
    produce identical placements, which the property tests pin.
    """

    def __init__(
        self,
        num_shards: int,
        placement: str = "contention",
        policy=None,
        device=None,
        seed: int = 0,
    ) -> None:
        if placement == "class-aware":
            placement = "contention"
        if placement not in ROUTER_PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; known: {ROUTER_PLACEMENTS}"
            )
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.placement = placement
        self.policy = make_policy(policy)
        self.device = device if device is not None else TITAN_XP
        self.seed = seed
        self._rng = random.Random(seed)
        self.shards = [_ShardBook(i) for i in range(num_shards)]
        self._rr = itertools.cycle(range(num_shards))
        self._affinity: dict[str, int] = {}
        self._classes: dict[str, object] = {}
        self.decisions: deque = deque(maxlen=256)

    # -- introspection -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def active_shards(self) -> list[int]:
        return [s.index for s in self.shards if not s.draining]

    # -- classification ----------------------------------------------------

    def classify(self, kernel_name: Optional[str]):
        """Intensity class of a hinted kernel (memoized offline profile)."""
        if kernel_name is None:
            return None
        spec = by_name(str(kernel_name))
        cls = self._classes.get(spec.name)
        if cls is None:
            cls = offline_profile(spec, self.device).intensity
            self._classes[spec.name] = cls
        return cls

    # -- placement ---------------------------------------------------------

    def pick(
        self,
        session: str,
        candidate=None,
        affinity: Optional[str] = None,
        pin: Optional[int] = None,
    ) -> int:
        """Choose the shard for a new session.

        ``candidate`` is the hinted kernel's intensity class (or None),
        ``affinity`` an opaque stickiness key, ``pin`` an explicit shard
        request.  Raises :class:`ShardDrainingError` when the pinned (or
        only) shard is draining and :class:`ProtocolError` on an invalid
        pin.
        """
        if pin is not None:
            if not 0 <= pin < self.num_shards:
                raise ProtocolError(
                    f"shard pin {pin} out of range (0..{self.num_shards - 1})"
                )
            if self.shards[pin].draining:
                raise ShardDrainingError(
                    f"shard {pin} is draining", retry_after=0.05
                )
            return self._commit(session, pin, candidate, None, "pin")
        if affinity is not None:
            known = self._affinity.get(affinity)
            if known is not None and not self.shards[known].draining:
                return self._commit(session, known, candidate, None, "affinity")
        index, score = self._place(candidate)
        if affinity is not None:
            self._affinity[affinity] = index
        return self._commit(session, index, candidate, score, "placement")

    def _place(self, candidate) -> tuple[int, Optional[float]]:
        active = self.active_shards()
        if not active:
            raise ShardDrainingError(
                "every shard is draining; no placement possible", retry_after=0.1
            )
        if self.placement == "round-robin":
            while True:
                index = next(self._rr)
                if not self.shards[index].draining:
                    return index, None
        if self.placement == "least-loaded" or candidate is None:
            # contention without a hint degrades to least-loaded.
            book = min(
                (self.shards[i] for i in active), key=lambda s: (s.load, s.index)
            )
            return book.index, book.load
        views = [
            ShardView(
                ident=s.index,
                residents=tuple(s.residents.values()),
                load=s.load,
                draining=s.draining,
            )
            for s in self.shards
        ]
        decision = choose_shard(self.policy, views, candidate)
        return decision.shard, decision.score

    def _commit(self, session, index, candidate, score, reason) -> int:
        self.decisions.append(
            RouteDecision(session, index, candidate, score, reason)
        )
        return index

    # -- bookkeeping callbacks ---------------------------------------------

    def note_open(self, index: int, session: str, candidate=None) -> None:
        book = self.shards[index]
        book.sessions += 1
        book.placed += 1
        book.placed_at = time.monotonic()
        if candidate is not None:
            book.residents[session] = candidate

    def note_close(self, index: int, session: str) -> None:
        book = self.shards[index]
        book.sessions = max(0, book.sessions - 1)
        book.residents.pop(session, None)

    def note_launch(self, index: int, delta: int) -> None:
        book = self.shards[index]
        book.inflight = max(0, book.inflight + delta)

    def set_draining(self, index: int, draining: bool = True) -> None:
        self.shards[index].draining = draining

    #: Seconds after a placement during which a stats poll may not lower
    #: the router's own session estimate: a redirected client needs time
    #: to actually reach the shard daemon before the shard's session
    #: table reflects it.
    REFRESH_GRACE = 1.0

    def refresh_load(self, index: int, sessions: int, inflight: int) -> None:
        """Overwrite a shard's load estimate (proc mode polls stats).

        The router never sees a redirected client disconnect, so resident
        classes are pruned on the only reliable signal it gets: the shard
        reporting an empty session table (outside the placement grace
        window).
        """
        book = self.shards[index]
        recent = (time.monotonic() - book.placed_at) < self.REFRESH_GRACE
        if recent and sessions < book.sessions:
            book.inflight = max(inflight, book.inflight)
            return
        book.sessions = sessions
        book.inflight = inflight
        if sessions == 0:
            book.residents.clear()


class InLoopShard:
    """One in-loop shard: its own sim environment, cluster, and driver.

    Construction mirrors what the unsharded server used to build once;
    the server now builds N of these and routes sessions among them.
    """

    def __init__(self, index: int, config) -> None:
        # Late imports: server.py imports this module.
        from repro.kernels.registry import SHORT_NAMES
        from repro.serve.server import SimDriver
        from repro.sim import Environment
        from repro.slate.cluster import SlateCluster

        self.index = index
        self.config = config
        self.env = Environment()
        self.cluster = SlateCluster(
            self.env,
            num_devices=config.num_devices,
            placement=config.cluster_placement(),
            policy=config.policy,
            log_limit=config.log_limit,
            rate_trace_limit=config.log_limit,
            **config.runtime_kwargs,
        )
        if config.preload_profiles:
            self.cluster.preload_profiles([by_name(n) for n in SHORT_NAMES])
        self.driver = SimDriver(self.env, config.step_batch)
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.create_task(self.driver.run())

    async def stop(self, drain_timeout: float = 10.0) -> None:
        import time

        deadline = time.monotonic() + drain_timeout
        while self.driver.pending and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.driver.stop()
        if self._task is not None:
            await self._task
            self._task = None

    def stats(self) -> dict:
        return {
            "shard": self.index,
            "sim_time": self.env.now,
            "sim_pending": self.driver.pending,
            "sim_errors": self.driver.sim_errors,
            "scheduler": self.cluster.scheduler_stats(),
            "occupancy": self.cluster.occupancy(),
        }


def _shard_process_main(config, trace_path: Optional[str]) -> None:
    """Entry point of a shard daemon process (``--shard-procs``).

    Observability mirrors the top-level ``repro serve`` runner: an
    always-on flight recorder (unless ``config.flight_recorder == 0``)
    stacked over the optional full-capture sink, with the ring dumped to
    ``<shard socket>.flight.json`` on crash or ``SIGUSR1``.
    """
    server_module = __import__("repro.serve.server", fromlist=["SlateServer"])

    from repro.obs import recorder as obs_recorder
    from repro.obs import trace as obs_trace
    from repro.obs.export import run_metadata, write_chrome_trace

    meta = run_metadata(command="serve-shard", socket=config.socket_path)
    sink = obs_trace.TraceSink(metadata=meta) if trace_path else None
    capacity = getattr(config, "flight_recorder", 0)
    recorder = None
    dump_path = None
    if capacity and capacity > 0:
        recorder = obs_recorder.install(capacity, forward=sink, metadata=meta)
        dump_path = getattr(config, "flight_dump", None) or (
            f"{config.socket_path}.flight.json"
        )
    elif sink is not None:
        obs_trace.set_sink(sink)

    async def body(server) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        if recorder is not None:
            try:
                loop.add_signal_handler(
                    signal.SIGUSR1,
                    lambda: recorder.dump(dump_path, reason="SIGUSR1"),
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.serve_forever()

    server = server_module.SlateServer(config)
    try:
        asyncio.run(body(server))
    except BaseException:
        if recorder is not None:
            try:
                recorder.dump(dump_path, reason="crash")
            except Exception:  # pragma: no cover - dump must not mask the crash
                pass
        raise
    finally:
        if recorder is not None:
            obs_recorder.uninstall()
        obs_trace.set_sink(None)
    if sink is not None:
        write_chrome_trace(trace_path, sink)


class ShardProcess:
    """One shard as a real OS process running a single-shard daemon."""

    def __init__(self, index: int, config, trace_path: Optional[str] = None) -> None:
        self.index = index
        self.config = config
        self.socket_path = config.socket_path
        self.trace_path = trace_path
        self._process = None

    def start(self, startup_timeout: float = 30.0) -> None:
        import multiprocessing
        import time

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context("spawn")
        self._process = ctx.Process(
            target=_shard_process_main,
            args=(self.config, self.trace_path),
            name=f"slate-shard-{self.index}",
            daemon=True,
        )
        self._process.start()
        deadline = time.monotonic() + startup_timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.socket_path):
                return
            if not self._process.is_alive():
                raise RuntimeError(
                    f"shard {self.index} daemon died during startup "
                    f"(exit {self._process.exitcode})"
                )
            time.sleep(0.01)
        raise RuntimeError(
            f"shard {self.index} socket {self.socket_path} absent after "
            f"{startup_timeout}s"
        )

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM (the shard daemon drains), then join."""
        proc = self._process
        if proc is None:
            return
        if proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGTERM)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - stuck shard
                proc.terminate()
                proc.join(5.0)
        self._process = None

    async def _roundtrip(self, op: str, timeout: float, **params) -> Optional[dict]:
        """One session-less request to the shard daemon; ``result`` or None."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(self.socket_path), timeout
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(protocol.encode_frame(protocol.request(0, op, **params)))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            while True:
                data = await asyncio.wait_for(reader.read(65536), timeout)
                if not data:
                    return None
                messages = decoder.feed(data)
                if messages:
                    reply = messages[0]
                    if not reply.get("ok"):
                        return None
                    return reply.get("result") or {}
        except (OSError, asyncio.TimeoutError, protocol.FrameError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def fetch_stats(self, timeout: float = 5.0) -> Optional[dict]:
        """Session-less ``stats`` round trip to the shard daemon."""
        result = await self._roundtrip("stats", timeout)
        if result is None:
            return None
        return result.get("server")

    async def fetch_metrics(self, timeout: float = 5.0) -> Optional[dict]:
        """Session-less ``metrics`` scrape: the shard's registry export
        plus its wall/sim clocks (the router's fleet-merge input)."""
        return await self._roundtrip("metrics", timeout)
