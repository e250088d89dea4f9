"""The Slate serving daemon: real sockets in front of the simulated GPU.

Architecture
------------
One asyncio event loop owns everything — there are no threads and no locks
around the simulator:

* ``asyncio.start_unix_server`` accepts client connections; each connection
  gets a handler task and (after ``hello``) one :class:`~repro.slate.daemon.
  SlateSession` from a :class:`~repro.slate.cluster.SlateCluster`,
  mirroring the paper's one-session-per-client-process design (§IV-A2).
* :class:`SimDriver` steps a discrete-event engine in bounded batches,
  yielding to the loop between batches so new frames keep flowing while the
  simulated GPU grinds.  Request handlers never call ``env.run`` — they
  submit a process generator and await an :class:`asyncio.Future` resolved
  when the sim process finishes.
* Simulated time only advances while there is simulated work: the wall
  clock between requests does not leak into simulated results, so a served
  run's sim-side numbers line up with an in-process (pure DES) run of the
  same operation sequence.

Sharding
--------
With ``shards > 1`` the daemon runs N independent shards — each with its
*own* environment, cluster, scheduler, and driver — and a
:class:`~repro.serve.router.PlacementRouter` assigns every new session to
one of them at ``hello`` time using the scheduling policy's Table-I
placement scoring (see :mod:`repro.serve.router`).  By default shards
live inside the daemon's event loop (:class:`~repro.serve.router.
InLoopShard`); with ``shard_procs`` each shard is a separate OS process
running a complete single-shard daemon on its own socket.  In that mode
v2 clients are redirected to the shard socket at ``hello`` (the router
leaves the data path) and v1 clients are transparently byte-proxied.

Admission control
-----------------
Bounded queues guard every scheduler: a global in-flight cap
(``max_inflight``, aggregated *across shards*), a per-shard cap
(``shard_inflight``, default the global cap split evenly), and a
per-session cap (``session_inflight``).  A launch over any bound is
rejected *immediately* with a structured backpressure reply
(``ServerBusy`` / ``SessionLimit``) carrying a ``retry_after`` hint —
the daemon never buffers unbounded work, clients decide whether to back
off or shed.  In ``shard_procs`` mode each shard daemon enforces its
even slice of the global cap, so the aggregate budget stays
``max_inflight``.

Session reaping
---------------
A session dies with its connection ("alive until the process completes").
Launches still in flight when a client disconnects are allowed to drain —
the scheduler already owns them — and the session is finalized (device
allocations freed, placement slot released) when its in-flight count hits
zero, so a crashing client can neither leak sessions nor wedge the
scheduler.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from repro.kernels.kernel import KernelSpec
from repro.kernels.registry import SHORT_NAMES, by_name
from repro.obs import trace as obs_trace
from repro.obs.aggregate import ShardScrape, aggregate_fleet
from repro.obs.recorder import get_recorder
from repro.obs.registry import registry as obs_registry
from repro.obs.slo import DEFAULT_TARGETS, SLOTracker, load_slo_config
from repro.serve import protocol
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    BackpressureError,
    FrameDecoder,
    FrameError,
    ProtocolError,
    ServerBusyError,
    ServerError,
    SessionLimitError,
    SessionStateError,
    ShardDrainingError,
    VersionMismatchError,
    error_reply,
    ok_reply,
    validate_request,
)
from repro.serve.router import (
    InLoopShard,
    PlacementRouter,
    ShardProcess,
    shard_socket_path,
)
from repro.sim import Environment
from repro.slate.daemon import SlateSession

__all__ = ["ServeConfig", "ServerThread", "SimDriver", "SlateServer"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a daemon."""

    socket_path: str
    num_devices: int = 1
    #: Router/cluster placement policy.  ``contention`` (the default) is
    #: Table-I contention-penalized least-loaded scoring; ``round-robin``
    #: and ``least-loaded`` are the class-blind baselines.  ``class-aware``
    #: is accepted as an alias of ``contention``.
    placement: str = "contention"
    #: Scheduling policy every per-device daemon runs (a registered name
    #: from :data:`repro.slate.policy.POLICIES`).
    policy: str = "table1"
    #: Device shards: each owns its own cluster + scheduler + sim engine
    #: and the placement router assigns sessions among them.
    shards: int = 1
    #: Run each shard as its own OS process (single-shard daemon on
    #: ``<socket_path>.shard<i>``) instead of inside the daemon's loop.
    shard_procs: bool = False
    #: Per-shard in-flight cap; ``None`` splits ``max_inflight`` evenly
    #: (ceiling division) so the aggregate budget stays ``max_inflight``.
    shard_inflight: Optional[int] = None
    #: Seed for the router's (deterministic) placement bookkeeping.
    router_seed: int = 0
    #: Per-shard Chrome-trace path template for ``shard_procs`` mode;
    #: ``{shard}`` expands to the shard index.
    shard_trace_template: Optional[str] = None
    #: Admission control: reject a launch when this many are in flight
    #: across all sessions and shards (queued + running in schedulers)...
    max_inflight: int = 256
    #: ...or this many for a single session.
    session_inflight: int = 32
    #: Open sessions the daemon will hold at once; further ``hello``\ s
    #: get a ``ServerBusy`` reply.
    max_sessions: int = 64
    #: Engine events stepped per scheduling of the driver task — the
    #: trade-off between sim throughput and socket latency.
    step_batch: int = 512
    #: Bound on scheduler decision/allocation logs and on every device's
    #: rate trace (a long-lived daemon must not hold unbounded history);
    #: ``None`` keeps everything.
    log_limit: Optional[int] = 256
    #: Seed every device's profile table offline at startup so first
    #: launches skip the profiling run (the paper allows this, §III-B1).
    preload_profiles: bool = True
    #: Stop serving after this many wall seconds (None = until stopped).
    duration: Optional[float] = None
    #: SLO targets: a JSON path/text for :func:`repro.obs.slo.load_slo_config`,
    #: or ``None`` for :data:`repro.obs.slo.DEFAULT_TARGETS`.
    slo: Optional[str] = None
    #: Flight-recorder ring capacity (recent trace events kept even with
    #: the full sink disabled); ``0`` disables the recorder.
    flight_recorder: int = 4096
    #: Where crash/``SIGUSR1`` ring dumps land; default
    #: ``<socket_path>.flight.json`` (shard daemons derive their own).
    flight_dump: Optional[str] = None
    #: Extra keyword arguments forwarded to every per-device runtime.
    runtime_kwargs: dict = field(default_factory=dict)

    def flight_dump_path(self) -> Optional[str]:
        """Resolved ring-dump path (None when the recorder is disabled)."""
        if self.flight_recorder <= 0:
            return None
        return self.flight_dump or f"{self.socket_path}.flight.json"

    def cluster_placement(self) -> str:
        """The intra-shard (multi-device) cluster placement policy.

        ``contention`` is the router-level name for the cluster's
        ``class-aware`` scoring — both run the same
        :func:`repro.slate.placement.choose_shard`.
        """
        return "class-aware" if self.placement == "contention" else self.placement

    def shard_inflight_limit(self) -> int:
        """Per-shard in-flight cap (explicit, or the global cap split
        evenly with ceiling division — exactly ``max_inflight`` when
        ``shards == 1``, so single-shard behavior is unchanged)."""
        if self.shard_inflight is not None:
            return self.shard_inflight
        shards = max(1, self.shards)
        return -(-self.max_inflight // shards)


class SimDriver:
    """Advance the discrete-event engine cooperatively inside asyncio.

    Handlers call :meth:`submit` with a process generator; the driver task
    steps the engine whenever events are pending and resolves the returned
    future with the generator's return value (or its exception).  The
    generator runs under a guard, so a failing request can never crash the
    engine loop for everyone else.
    """

    def __init__(self, env: Environment, step_batch: int = 512) -> None:
        self.env = env
        self.step_batch = max(1, step_batch)
        self.pending = 0
        self.sim_errors = 0
        self._wake = asyncio.Event()
        self._stopped = False

    def submit(self, gen: Generator) -> "asyncio.Future":
        """Run ``gen`` as a sim process; the future resolves on completion."""
        future = asyncio.get_running_loop().create_future()

        def guarded() -> Generator:
            self.pending += 1
            try:
                result = yield from gen
            except Exception as exc:
                if not future.done():
                    future.set_exception(exc)
                else:  # pragma: no cover - future cancelled under shutdown
                    self.sim_errors += 1
            else:
                if not future.done():
                    future.set_result(result)
            finally:
                self.pending -= 1

        self.env.process(guarded())
        self._wake.set()
        return future

    def stop(self) -> None:
        self._stopped = True
        self._wake.set()

    async def run(self) -> None:
        """The driver task: step while work is pending, sleep while idle."""
        env = self.env
        inf = float("inf")
        while not self._stopped:
            if env.peek() == inf:
                self._wake.clear()
                # Re-check after clearing: submit() may have raced us.
                if env.peek() == inf and not self._stopped:
                    await self._wake.wait()
                continue
            steps = self.step_batch
            while steps > 0 and env.peek() != inf:
                try:
                    env.step()
                except Exception:
                    # A failed event outside any guarded process; count it
                    # and keep serving (the guilty request already got its
                    # error through the guard, or was fire-and-forget).
                    self.sim_errors += 1
                steps -= 1
            await asyncio.sleep(0)


async def _pump_bidirectional(
    c_reader: asyncio.StreamReader,
    c_writer: asyncio.StreamWriter,
    s_reader: asyncio.StreamReader,
    s_writer: asyncio.StreamWriter,
) -> None:
    """Copy bytes client<->shard until either side closes (v1 proxying)."""

    async def copy(src: asyncio.StreamReader, dst: asyncio.StreamWriter) -> None:
        try:
            while True:
                chunk = await src.read(65536)
                if not chunk:
                    break
                dst.write(chunk)
                await dst.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                dst.write_eof()
            except (OSError, RuntimeError):
                pass

    await asyncio.gather(copy(c_reader, s_writer), copy(s_reader, c_writer))


def _sum_scheduler_stats(blocks, policy: str) -> dict:
    """Sum per-shard scheduler counters into one fleet-wide block."""
    totals: dict = {}
    name = None
    for block in blocks:
        if not block:
            continue
        name = name or block.get("policy")
        for key, value in block.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    totals["policy"] = name if name is not None else str(policy)
    return totals


class _Session:
    """Daemon-side state for one connected client."""

    __slots__ = (
        "sid", "name", "slate", "shard", "inflight", "connected",
        "launches", "errors", "hint_class", "stale",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        slate: SlateSession,
        shard: int = 0,
        hint_class=None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.slate = slate
        self.shard = shard
        self.inflight = 0
        self.connected = True
        self.launches = 0
        self.errors = 0
        #: Intensity class of the ``kernel_hint`` this session was placed
        #: with (None: no hint given at hello).
        self.hint_class = hint_class
        #: Whether the session's *observed* kernel class currently diverges
        #: from ``hint_class`` (mirrored into ``serve.shard.*.placement_stale``).
        self.stale = False


class SlateServer:
    """The daemon: N shards (cluster + scheduler + engine) behind a
    placement router behind a Unix socket."""

    def __init__(self, config: ServeConfig) -> None:
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self._proc_mode = bool(config.shard_procs)
        self.router = PlacementRouter(
            config.shards,
            placement=config.placement,
            policy=config.policy,
            device=config.runtime_kwargs.get("device"),
            seed=config.router_seed,
        )
        self._shard_limit = config.shard_inflight_limit()
        if self._proc_mode:
            self.shards: list[InLoopShard] = []
            self.procs = [
                ShardProcess(i, self._shard_config(i), self._shard_trace(i))
                for i in range(config.shards)
            ]
            # The front daemon runs no simulation of its own; ``ping``
            # reports sim_time 0.0 and launches never reach it.
            self.env = Environment()
            self.cluster = None
            self.driver = SimDriver(self.env, config.step_batch)
            self._shard_stats: dict[int, dict] = {}
        else:
            self.shards = [InLoopShard(i, config) for i in range(config.shards)]
            self.procs: list[ShardProcess] = []
            # Single-shard compatibility aliases (tests, tools, and the
            # pre-shard API poke server.env/cluster/driver — shard 0).
            self.env = self.shards[0].env
            self.cluster = self.shards[0].cluster
            self.driver = self.shards[0].driver
            self._shard_stats = {}
        self._sessions: dict[int, _Session] = {}
        self._sids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._bg_tasks: set[asyncio.Task] = set()
        self._driver_task: Optional[asyncio.Task] = None
        self._poll_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = asyncio.Event()
        self.started_at = 0.0
        # Serving metrics (process-wide registry; see docs/serving.md).
        reg = obs_registry()
        self._m_requests = reg.counter("serve.requests")
        self._m_errors = reg.counter("serve.errors")
        self._m_busy = reg.counter("serve.busy_rejections")
        self._m_launches = reg.counter("serve.launches")
        self._m_opened = reg.counter("serve.sessions_opened")
        self._m_reaped = reg.counter("serve.sessions_reaped")
        self._g_sessions = reg.gauge("serve.sessions")
        self._g_inflight = reg.gauge("serve.inflight")
        self._g_shard_sessions = [
            reg.gauge(f"serve.shard.{i}.sessions") for i in range(config.shards)
        ]
        self._g_shard_inflight = [
            reg.gauge(f"serve.shard.{i}.inflight") for i in range(config.shards)
        ]
        #: Sessions whose observed kernel class has diverged from the
        #: ``kernel_hint`` the router placed them with — each one is a
        #: placement decision the workload has drifted out from under.
        self._g_shard_stale = [
            reg.gauge(f"serve.shard.{i}.placement_stale")
            for i in range(config.shards)
        ]
        self._h_latency = {
            op: reg.histogram(f"serve.latency.{op}") for op in protocol.OPS
        }
        self._h_queue_depth = reg.histogram("serve.queue_depth")
        self._h_sim_latency = reg.histogram("serve.sim_latency.launch")
        # SLO burn-rate tracking over the launch-latency streams.
        targets = (
            load_slo_config(config.slo) if config.slo else DEFAULT_TARGETS
        )
        self.slo = SLOTracker(targets, registry=reg)
        # Freshest per-shard metrics scrapes (proc mode; fed by the poll
        # task, served by the ``metrics`` op as the fleet view).
        self._shard_metrics: dict[int, ShardScrape] = {}

    def _shard_config(self, index: int) -> ServeConfig:
        """The single-shard daemon config for shard process ``index``."""
        shards = max(1, self.config.shards)
        return replace(
            self.config,
            socket_path=shard_socket_path(self.config.socket_path, index),
            shards=1,
            shard_procs=False,
            shard_inflight=None,
            shard_trace_template=None,
            max_inflight=self._shard_limit,
            max_sessions=-(-self.config.max_sessions // shards),
            duration=None,
            # Each shard daemon derives its own ring-dump path from its
            # socket; SLO targets are tracked per shard and merged by the
            # fleet scrape (burn gauges merge by max).
            flight_dump=None,
        )

    def _shard_trace(self, index: int) -> Optional[str]:
        template = self.config.shard_trace_template
        if template is None:
            return None
        return template.format(shard=index)

    # -- introspection -----------------------------------------------------

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def inflight(self) -> int:
        return sum(s.inflight for s in self._sessions.values())

    def shard_inflight(self, index: int) -> int:
        return sum(
            s.inflight for s in self._sessions.values() if s.shard == index
        )

    def _shard_blocks(self) -> list[dict]:
        """Per-shard stats blocks for :meth:`stats` (both shard modes)."""
        blocks = []
        for book in self.router.shards:
            if self._proc_mode:
                block = dict(self._shard_stats.get(book.index) or {})
                block.setdefault("shard", book.index)
            else:
                block = self.shards[book.index].stats()
                block["sessions"] = sum(
                    1 for s in self._sessions.values() if s.shard == book.index
                )
                block["inflight"] = self.shard_inflight(book.index)
            block["draining"] = book.draining
            block["placed"] = book.placed
            blocks.append(block)
        return blocks

    def stats(self) -> dict:
        """Server-level snapshot (the ``stats`` op's result body)."""
        if self._proc_mode:
            shard_blocks = self._shard_blocks()
            sim_time = max(
                (b.get("sim_time", 0.0) for b in shard_blocks), default=0.0
            )
            sim_pending = sum(b.get("sim_pending", 0) for b in shard_blocks)
            sim_errors = sum(b.get("sim_errors", 0) for b in shard_blocks)
            scheduler = _sum_scheduler_stats(
                [b.get("scheduler") for b in shard_blocks], self.config.policy
            )
        else:
            shard_blocks = self._shard_blocks()
            sim_time = max(shard.env.now for shard in self.shards)
            sim_pending = sum(shard.driver.pending for shard in self.shards)
            sim_errors = sum(shard.driver.sim_errors for shard in self.shards)
            scheduler = _sum_scheduler_stats(
                [shard.cluster.scheduler_stats() for shard in self.shards],
                self.config.policy,
            )
        return {
            "sim_time": sim_time,
            "policy": self.config.policy,
            "placement": self.router.placement,
            "shard_count": self.router.num_shards,
            "shard_procs": self._proc_mode,
            "sessions": self.session_count,
            "inflight": self.inflight,
            "requests": self._m_requests.value,
            "errors": self._m_errors.value,
            "busy_rejections": self._m_busy.value,
            "launches": self._m_launches.value,
            "sessions_opened": self._m_opened.value,
            "sessions_reaped": self._m_reaped.value,
            "sim_pending": sim_pending,
            "sim_errors": sim_errors,
            "scheduler": scheduler,
            "shards": shard_blocks,
            "uptime": time.monotonic() - self.started_at if self.started_at else 0.0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the shard pool."""
        self._loop = asyncio.get_running_loop()
        path = self.config.socket_path
        if os.path.exists(path):
            os.unlink(path)
        if self._proc_mode:
            # Shard daemons come up concurrently (profile preloading is
            # the slow part); the router socket binds only once every
            # shard accepts connections.
            await asyncio.gather(
                *[
                    self._loop.run_in_executor(None, proc.start)
                    for proc in self.procs
                ]
            )
            self._poll_task = asyncio.create_task(self._poll_shards())
        else:
            for shard in self.shards:
                shard.start()
        self._server = await asyncio.start_unix_server(self._handle, path=path)
        self.started_at = time.monotonic()

    async def _poll_shards(self, interval: float = 0.25) -> None:
        """Refresh the router's load estimates from shard-daemon stats and
        keep the fleet metrics cache warm (proc mode only; in-loop
        bookkeeping is exact and shares this process's registry)."""
        while True:
            await self._refresh_shard_scrapes()
            await asyncio.sleep(interval)

    async def _refresh_shard_scrapes(self) -> None:
        """Scrape stats + registry from every shard daemon right now.

        The poll loop calls this on its interval; a ``fresh`` metrics
        request calls it inline so a scrape taken right after a burst
        (e.g. the load generator's final cross-check) sees every launch
        instead of a cache up to one interval stale."""
        for proc in self.procs:
            block = await proc.fetch_stats()
            if block is None:
                continue
            self._shard_stats[proc.index] = block
            sessions = int(block.get("sessions", 0))
            inflight = int(block.get("inflight", 0))
            self.router.refresh_load(proc.index, sessions, inflight)
            self._g_shard_sessions[proc.index].set(sessions)
            self._g_shard_inflight[proc.index].set(inflight)
            scrape = await proc.fetch_metrics()
            if scrape is not None:
                self._shard_metrics[proc.index] = ShardScrape(
                    shard=proc.index,
                    state=scrape.get("registry"),
                    wall=float(scrape.get("wall", 0.0)),
                    sim_time=float(scrape.get("sim_time", 0.0)),
                    scraped_at=time.time(),
                    extra={
                        "sessions": sessions,
                        "inflight": inflight,
                        "slo": scrape.get("slo"),
                        "stats": block,
                    },
                )

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to shut down (signal-handler safe
        from within the loop thread)."""
        self._stop.set()

    async def serve_forever(self) -> None:
        """Start, run until stopped (or ``config.duration``), shut down."""
        await self.start()
        try:
            if self.config.duration is not None:
                try:
                    await asyncio.wait_for(
                        self._stop.wait(), timeout=self.config.duration
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await self._stop.wait()
        finally:
            await self.shutdown()

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Graceful stop: no new connections, drain in-flight sim work."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._poll_task is not None:
            self._poll_task.cancel()
            await asyncio.gather(self._poll_task, return_exceptions=True)
            self._poll_task = None
        deadline = time.monotonic() + drain_timeout
        while (
            any(shard.driver.pending for shard in self.shards)
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        for task in list(self._conn_tasks) + list(self._bg_tasks):
            task.cancel()
        pending_tasks = list(self._conn_tasks) + list(self._bg_tasks)
        if pending_tasks:
            await asyncio.gather(*pending_tasks, return_exceptions=True)
        # Finalize anything a cancelled handler left behind.
        for sess in list(self._sessions.values()):
            sess.connected = False
            self._finalize(sess, force=True)
        for shard in self.shards:
            await shard.stop(drain_timeout)
        if self.procs:
            loop = asyncio.get_running_loop()
            await asyncio.gather(
                *[loop.run_in_executor(None, proc.stop) for proc in self.procs]
            )
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)

    # -- shard draining ----------------------------------------------------

    def request_drain(self, index: int) -> None:
        """Start draining shard ``index`` (callable from any thread).

        The shard stops receiving placements immediately; new launches on
        its resident sessions get ``ShardDraining`` backpressure; launches
        already in flight complete.  In proc mode the shard daemon is then
        SIGTERMed (its own shutdown drains pending sim work).
        """
        if not 0 <= index < self.router.num_shards:
            raise ValueError(f"no shard {index}")
        self.router.set_draining(index)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._spawn_drain, index)

    def _spawn_drain(self, index: int) -> None:
        task = asyncio.create_task(self._drain_shard(index))
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)

    async def _drain_shard(self, index: int) -> None:
        if self._proc_mode:
            proc = self.procs[index]
            await asyncio.get_running_loop().run_in_executor(None, proc.stop)
            return
        while self.shard_inflight(index) > 0:
            await asyncio.sleep(0.01)

    # -- session reaping ---------------------------------------------------

    def _finalize(self, sess: _Session, force: bool = False) -> None:
        """Reap a disconnected session once its launches drained."""
        if sess.connected or (sess.inflight and not force):
            return
        if sess.sid in self._sessions:
            del self._sessions[sess.sid]
            sess.slate.close()
            self.router.note_close(sess.shard, sess.name)
            if sess.stale:
                # A reaped session stops counting against its shard.
                sess.stale = False
                self._g_shard_stale[sess.shard].dec()
            self._m_reaped.inc()
            self._g_sessions.set(len(self._sessions))
            self._g_shard_sessions[sess.shard].set(
                self.router.shards[sess.shard].sessions
            )
            if obs_trace.ENABLED:
                obs_trace.instant(
                    "session.close",
                    self._shard_env(sess).now,
                    "serve",
                    sess.name,
                    sid=sess.sid,
                    shard=sess.shard,
                )

    def _shard_env(self, sess: _Session) -> Environment:
        return self.shards[sess.shard].env if self.shards else self.env

    def _shard_driver(self, sess: _Session) -> SimDriver:
        return self.shards[sess.shard].driver if self.shards else self.driver

    # -- connection handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        decoder = FrameDecoder()
        sess: Optional[_Session] = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except FrameError as exc:
                    self._m_errors.inc()
                    await self._send(writer, error_reply(None, exc))
                    break
                stop = False
                for i, msg in enumerate(messages):
                    if (
                        self._proc_mode
                        and sess is None
                        and msg.get("op") == "hello"
                        and (msg.get("params") or {}).get("version") == 1
                    ):
                        # v1 clients predate redirects: route their hello,
                        # then pump bytes between client and shard daemon
                        # for the life of the connection.
                        await self._proxy_v1(
                            msg, messages[i + 1:], decoder, reader, writer
                        )
                        stop = True
                        break
                    sess, stop = await self._dispatch(msg, writer, sess)
                    if stop:
                        break
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            if sess is not None:
                sess.connected = False
                self._finalize(sess)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, writer: asyncio.StreamWriter, msg: dict) -> bool:
        try:
            writer.write(protocol.encode_frame(msg))
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError):
            return False

    async def _dispatch(
        self,
        msg: dict,
        writer: asyncio.StreamWriter,
        sess: Optional[_Session],
    ) -> tuple[Optional[_Session], bool]:
        """Handle one request; returns (session, close-connection?)."""
        self._m_requests.inc()
        t0 = time.monotonic()
        rid = msg.get("id")
        op = "?"
        try:
            rid, op, params = validate_request(msg)
            if op == "hello":
                if sess is not None:
                    raise SessionStateError(
                        f"session {sess.name} is already open on this connection"
                    )
                sess, result = self._op_hello(params)
            elif op == "ping":
                result = {"pong": True, "sim_time": self.env.now}
            elif op == "stats":
                # v2: session-less stats — the router (or any monitor)
                # polls load without opening a session.
                result = self._op_stats(sess)
            elif op == "metrics":
                # v2: session-less telemetry scrape — registry export,
                # fleet merge (on a router), SLO view, recent ring events.
                # ``fresh`` bypasses the proc-mode scrape cache for
                # read-after-burst accuracy (loadgen's final cross-check).
                if params.get("fresh") and self._proc_mode:
                    await self._refresh_shard_scrapes()
                result = self._op_metrics(params)
            elif sess is None:
                raise SessionStateError(f"op {op!r} requires a hello first")
            elif op == "register":
                result = await self._op_register(sess, params)
            elif op == "launch":
                result = await self._op_launch(sess, rid, params)
            elif op == "sync":
                result = await self._op_sync(sess)
            else:  # bye
                result = {"bye": True}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._m_errors.inc()
            if sess is not None:
                sess.errors += 1
            if isinstance(exc, BackpressureError):
                self._m_busy.inc()
            await self._send(writer, error_reply(rid, exc))
            # Protocol violations poison the stream; typed app errors don't.
            fatal = isinstance(exc, ProtocolError) and not isinstance(
                exc, (VersionMismatchError,)
            )
            return sess, fatal
        histogram = self._h_latency.get(op)
        if histogram is not None:
            wall = time.monotonic() - t0
            histogram.observe(wall)
            # Score against any SLO targeting this op's wall latency
            # (dict-lookup no-op for untracked metrics).
            self.slo.record(f"serve.latency.{op}", wall)
        delivered = await self._send(writer, ok_reply(rid, result))
        return sess, (op == "bye" or not delivered)

    # -- operations --------------------------------------------------------

    def _op_hello(self, params: dict) -> tuple[Optional[_Session], dict]:
        version = params.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise VersionMismatchError(
                f"client protocol version {version!r} not supported "
                f"(server speaks {PROTOCOL_VERSION}; accepts "
                f"{sorted(SUPPORTED_VERSIONS)})"
            )
        if not self._proc_mode and len(self._sessions) >= self.config.max_sessions:
            raise ServerBusyError(
                f"session table full ({self.config.max_sessions})", retry_after=0.1
            )
        sid = next(self._sids)
        name = str(params.get("name") or f"client-{sid}")
        session_name = f"{name}#{sid}"
        hint = params.get("kernel_hint")
        candidate = self.router.classify(hint) if hint is not None else None
        affinity = params.get("affinity")
        pin = params.get("shard")
        if pin is not None:
            pin = int(pin)
        shard_index = self.router.pick(
            session_name, candidate, affinity=affinity, pin=pin
        )
        if obs_trace.ENABLED:
            decision = self.router.decisions[-1]
            obs_trace.instant(
                "router.place",
                self.env.now,
                "serve",
                session_name,
                shard=shard_index,
                reason=decision.reason,
                score=decision.score,
                kernel_hint=hint,
            )
        if self._proc_mode:
            # v2 clients reconnect to the shard daemon themselves — the
            # router answers hello and leaves the data path.  The shard
            # runs its own session table; load flows back via stats polls.
            self.router.note_open(shard_index, session_name, candidate)
            return None, {
                "session": None,
                "name": session_name,
                "version": PROTOCOL_VERSION,
                "shard": shard_index,
                "redirect": self.procs[shard_index].socket_path,
                "devices": self.config.num_devices,
                "device": None,
            }
        shard = self.shards[shard_index]
        spec_hint = by_name(str(hint)) if hint is not None else None
        slate = shard.cluster.create_session(session_name, spec_hint=spec_hint)
        sess = _Session(
            sid, session_name, slate, shard=shard_index, hint_class=candidate
        )
        self._sessions[sid] = sess
        self.router.note_open(shard_index, session_name, candidate)
        self._m_opened.inc()
        self._g_sessions.set(len(self._sessions))
        self._g_shard_sessions[shard_index].set(
            self.router.shards[shard_index].sessions
        )
        if obs_trace.ENABLED:
            obs_trace.instant(
                "session.open", shard.env.now, "serve", sess.name,
                sid=sid, shard=shard_index,
            )
        return sess, {
            "session": sid,
            "name": sess.name,
            "version": PROTOCOL_VERSION,
            "shard": shard_index,
            "devices": shard.cluster.num_devices,
            "device": shard.cluster.placements.get(sess.name),
        }

    async def _proxy_v1(
        self,
        hello_msg: dict,
        rest: list,
        decoder: FrameDecoder,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Transparently proxy a v1 client's whole connection to a shard
        daemon (proc mode): route its hello, forward everything already
        read, then pump bytes both ways until either side hangs up."""
        rid = hello_msg.get("id")
        params = hello_msg.get("params") or {}
        name = str(params.get("name") or "v1-client")
        try:
            hint = params.get("kernel_hint")
            candidate = self.router.classify(hint) if hint is not None else None
            index = self.router.pick(
                name, candidate, affinity=params.get("affinity")
            )
        except Exception as exc:
            self._m_errors.inc()
            await self._send(writer, error_reply(rid, exc))
            return
        self.router.note_open(index, name, candidate)
        try:
            try:
                s_reader, s_writer = await asyncio.open_unix_connection(
                    self.procs[index].socket_path
                )
            except OSError as exc:
                self._m_errors.inc()
                await self._send(
                    writer,
                    error_reply(rid, ServerError(f"shard {index} unreachable: {exc}")),
                )
                return
            try:
                s_writer.write(protocol.encode_frame(hello_msg))
                for msg in rest:
                    s_writer.write(protocol.encode_frame(msg))
                # Bytes of a frame the decoder had only partially seen.
                leftover = bytes(decoder._buf)
                if leftover:
                    s_writer.write(leftover)
                await s_writer.drain()
                await _pump_bidirectional(reader, writer, s_reader, s_writer)
            finally:
                s_writer.close()
                try:
                    await s_writer.wait_closed()
                except Exception:
                    pass
        finally:
            self.router.note_close(index, name)

    def _resolve_spec(self, params: dict) -> KernelSpec:
        kernel = params.get("kernel")
        if not isinstance(kernel, str):
            raise ProtocolError(f"launch/register needs a kernel name, got {kernel!r}")
        return by_name(kernel)

    async def _op_register(self, sess: _Session, params: dict) -> dict:
        spec = self._resolve_spec(params)
        env = self._shard_env(sess)

        def gen() -> Generator:
            yield from sess.slate.pipe.command()
            t0 = env.now
            yield from sess.slate.runtime.prepare_kernel(spec)
            return env.now - t0

        compile_time = await self._shard_driver(sess).submit(gen())
        return {"kernel": spec.name, "compile_time": compile_time}

    def _admit(self, sess: _Session) -> None:
        if self.router.shards[sess.shard].draining:
            raise ShardDrainingError(
                f"shard {sess.shard} is draining; reconnect to be placed "
                "elsewhere",
                retry_after=0.05,
            )
        total = self.inflight
        self._h_queue_depth.observe(total)
        if total >= self.config.max_inflight:
            raise ServerBusyError(
                f"{total} launches in flight (max {self.config.max_inflight})",
                retry_after=0.02,
            )
        shard_total = self.shard_inflight(sess.shard)
        if shard_total >= self._shard_limit:
            raise ServerBusyError(
                f"shard {sess.shard} has {shard_total} launches in flight "
                f"(max {self._shard_limit})",
                retry_after=0.02,
            )
        if sess.inflight >= self.config.session_inflight:
            raise SessionLimitError(
                f"session {sess.name} has {sess.inflight} launches in flight "
                f"(max {self.config.session_inflight})",
                retry_after=0.02,
            )

    def _note_observed_class(self, sess: _Session, spec) -> None:
        """Placement-staleness tracking for hinted sessions.

        The router placed ``sess`` using its ``kernel_hint``'s intensity
        class; every launch compares the class of what the session
        *actually* runs against that hint and flips the shard's
        ``serve.shard.<i>.placement_stale`` gauge on divergence (and back
        on re-convergence).  A non-zero gauge marks placement decisions the
        workload has drifted out from under — the operator signal to
        reconnect those clients or drain the shard.
        """
        if sess.hint_class is None:
            return
        observed = self.router.classify(spec.name)
        stale = observed is not None and observed != sess.hint_class
        if stale != sess.stale:
            sess.stale = stale
            self._g_shard_stale[sess.shard].inc(1 if stale else -1)
            if obs_trace.ENABLED:
                obs_trace.instant(
                    "session.placement_stale" if stale
                    else "session.placement_fresh",
                    self._shard_env(sess).now,
                    "serve",
                    sess.name,
                    shard=sess.shard,
                    hint=str(sess.hint_class),
                    observed=str(observed),
                )

    async def _op_launch(self, sess: _Session, rid, params: dict) -> dict:
        spec = self._resolve_spec(params)
        self._note_observed_class(sess, spec)
        task_size = params.get("task_size")
        if task_size is not None:
            task_size = int(task_size)
        priority = int(params.get("priority", 0))
        deadline = params.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        self._admit(sess)
        env = self._shard_env(sess)
        slate = sess.slate
        shard_index = sess.shard

        def gen() -> Generator:
            t0 = env.now
            ticket = yield from slate.launch(
                spec, task_size=task_size, priority=priority, deadline=deadline
            )
            if ticket.rejected:
                # Synchronous policy rejection: relay the typed error so the
                # client sees AdmissionRejected, not a silent no-op launch.
                raise ticket.done.value
            if not ticket.done.triggered:
                yield ticket.done
            # Same pruning synchronize() does, without charging a second
            # pipe round trip: completed tickets must not accumulate in a
            # long-lived served session.
            slate._pending = [t for t in slate._pending if not t.done.processed]
            if obs_trace.ENABLED:
                obs_trace.complete(
                    "request.launch", t0, env.now - t0, "serve", sess.name,
                    kernel=spec.name, rid=rid, shard=shard_index,
                )
            return ticket, t0, env.now

        sess.inflight += 1
        self.router.note_launch(shard_index, 1)
        self._g_inflight.set(self.inflight)
        self._g_shard_inflight[shard_index].set(self.shard_inflight(shard_index))
        try:
            ticket, sim_start, sim_end = await self._shard_driver(sess).submit(gen())
        finally:
            sess.inflight -= 1
            self.router.note_launch(shard_index, -1)
            self._g_inflight.set(self.inflight)
            self._g_shard_inflight[shard_index].set(
                self.shard_inflight(shard_index)
            )
            self._finalize(sess)
        sess.launches += 1
        self._m_launches.inc()
        self._h_sim_latency.observe(sim_end - sim_start)
        self.slo.record("serve.sim_latency.launch", sim_end - sim_start)
        result = {
            "kernel": spec.name,
            "task_size": ticket.task_size,
            "priority": ticket.priority,
            "sim_submitted": sim_start,
            "sim_started": ticket.started_at,
            "sim_finished": sim_end,
            "preemptions": ticket.preemptions,
        }
        if ticket.counters is not None:
            result["sim_exec"] = ticket.counters.elapsed
        return result

    async def _op_sync(self, sess: _Session) -> dict:
        slate = sess.slate
        env = self._shard_env(sess)

        def gen() -> Generator:
            t0 = env.now
            yield from slate.synchronize()
            return env.now - t0

        waited = await self._shard_driver(sess).submit(gen())
        return {"waited": waited, "sim_time": env.now}

    def _op_stats(self, sess: Optional[_Session]) -> dict:
        session_block = None
        if sess is not None:
            session_block = {
                "sid": sess.sid,
                "name": sess.name,
                "shard": sess.shard,
                "inflight": sess.inflight,
                "launches": sess.launches,
                "errors": sess.errors,
                "comm_time": sess.slate.comm_time,
                "compile_time": sess.slate.compile_time,
            }
        return {"server": self.stats(), "session": session_block}

    #: Ring events returned per ``metrics`` request at most — together
    #: with the registry payload this stays well inside ``MAX_FRAME``.
    RECENT_LIMIT = 1000

    def _op_metrics(self, params: dict) -> dict:
        """The session-less telemetry scrape (v2 ``metrics`` op).

        A shard daemon (or unsharded server) answers with its own
        registry export; a ``--shard-procs`` router answers with the
        fleet: per-shard scrapes merged (counters summed, histograms
        bucket-merged, SLO burn by worst shard) plus per-shard sim-skew
        and scrape-staleness gauges.  In-loop shards share this process's
        registry, so the local export already *is* the fleet view there.
        """
        recorder = get_recorder()
        if recorder is not None:
            recorder.evicted  # sync obs.recorder.evicted before the export
        local_state = obs_registry().export_state()
        now = time.time()
        if self._proc_mode:
            scrapes = [
                self._shard_metrics[i] for i in sorted(self._shard_metrics)
            ]
        else:
            scrapes = []
            for shard in self.shards:
                scrapes.append(
                    ShardScrape(
                        shard=shard.index,
                        state=None,  # shared registry: merged once below
                        wall=now,
                        sim_time=shard.env.now,
                        scraped_at=now,
                        extra={
                            "sessions": sum(
                                1 for s in self._sessions.values()
                                if s.shard == shard.index
                            ),
                            "inflight": self.shard_inflight(shard.index),
                            "stats": shard.stats(),
                            "shared_registry": True,
                        },
                    )
                )
        fleet = aggregate_fleet(scrapes, local_state=local_state, now=now)
        result = {
            "registry": fleet["registry"],
            "shards": fleet["shards"],
            "sim_time": fleet["sim_time"],
            "wall": now,
            "slo": self.slo.snapshot(),
            "protocol": PROTOCOL_VERSION,
            "proc_mode": self._proc_mode,
            "shard_count": self.router.num_shards,
        }
        recent = params.get("recent")
        if recent:
            if recorder is not None:
                limit = min(int(recent), self.RECENT_LIMIT)
                result["recent"] = recorder.serialize(limit)
                result["recorder"] = {
                    "size": len(recorder),
                    "capacity": recorder.capacity,
                    "evicted": recorder.evicted,
                }
            else:
                result["recent"] = []
                result["recorder"] = None
        return result


class ServerThread:
    """Run a :class:`SlateServer` on a background thread (tests, benches).

    Context manager: ``with ServerThread(config) as server:`` yields the
    server once its socket accepts connections; exit requests a graceful
    shutdown and joins the thread.  The embedded server is real — clients
    connect over the Unix socket exactly as they would to ``repro serve``.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: Optional[SlateServer] = None
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = None
        self._error: Optional[BaseException] = None

    def _main(self) -> None:
        async def body() -> None:
            self.server = SlateServer(self.config)
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server._stop.wait()
            await self.server.shutdown()

        asyncio.run(body())

    def start(self) -> SlateServer:
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="slate-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve thread did not come up within 30s")
        if self._error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"serve thread failed to start: {self._error!r}")
        return self.server

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> SlateServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
