"""The Slate serving daemon: real sockets in front of the simulated GPU.

Architecture
------------
One asyncio event loop owns everything — there are no threads and no locks
around the simulator:

* ``loop.create_unix_server`` accepts client connections; each connection
  is one :class:`asyncio.Protocol` (``_Connection``) and, after ``hello``,
  holds one :class:`~repro.slate.daemon.SlateSession` from its shard's
  :class:`~repro.slate.daemon.SlateRuntime`, mirroring the paper's
  one-session-per-client-process design (§IV-A2).  A connection serves
  its frames one at a time, in arrival order: a request that needs the
  simulator is the one in flight, and the frames behind it wait (with
  reading paused) until its reply is written.
* :class:`~repro.serve.router.SimDriver` steps a discrete-event engine
  from loop callbacks, a bounded batch per callback, so new frames keep
  flowing while the simulated GPU grinds; with no events pending nothing
  is scheduled.
  Requests never call ``env.run`` — they submit a process generator with
  a completion callback, called after the step batch in which the
  process finished; the callback writes the reply and serves the
  connection's next frame.  A served launch thus takes two loop passes:
  the read that submits it, and the pump that completes it.
* Kernel names resolve through :func:`~repro.kernels.registry.by_name`
  to one shared spec each, so repeat launches reuse the spec's work and
  the device's record for it, as an offline run does.
* Simulated time only advances while there is simulated work: the wall
  clock between requests does not leak into simulated results, so a served
  run's sim-side numbers line up with an in-process (pure DES) run of the
  same operation sequence.

Sharding
--------
With ``shards > 1`` the daemon runs N independent shards — each with its
*own* environment, Slate runtime, scheduler, and driver — and a
:class:`~repro.serve.router.PlacementRouter` assigns every new session to
one of them at ``hello`` time using the scheduling policy's Table-I
placement scoring (see :mod:`repro.slate.placement`).  Every shard is an
:class:`~repro.serve.router.InLoopShard` inside the daemon's event loop,
so every connection takes one path: a ``hello`` placed onto a shard and
opened there (:meth:`~repro.slate.placement.Shard.open_session`), then
requests served on that same connection, each launch run by the shard's
:meth:`~repro.slate.placement.Shard.launch`.

Admission control
-----------------
Bounded queues guard every scheduler: a global in-flight cap
(``max_inflight``, aggregated *across shards*), a per-shard cap
(``shard_inflight``, default the global cap split evenly), and a
per-session cap (``session_inflight``).  A launch over any bound is
rejected *immediately* with a structured backpressure reply
(``ServerBusy`` / ``SessionLimit``) carrying a ``retry_after`` hint —
the daemon never buffers unbounded work, clients decide whether to back
off or shed.  The router's per-shard books are the one ledger of open
sessions and in-flight launches that these checks and ``stats`` read.

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
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.kernels.kernel import KernelSpec
from repro.kernels.registry import by_name
from repro.obs import trace as obs_trace
from repro.obs.export import encode_event
from repro.obs.registry import registry as obs_registry
from repro.obs.slo import DEFAULT_TARGETS, SLOTracker, load_slo_config
from repro.serve import protocol
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BackpressureError,
    FrameDecoder,
    FrameError,
    ProtocolError,
    ServerBusyError,
    SessionLimitError,
    SessionStateError,
    ShardDrainingError,
    VersionMismatchError,
    error_reply,
    ok_reply,
    validate_request,
)
from repro.serve.router import InLoopShard, PlacementRouter
from repro.sim import Environment, EnvironmentStats, aggregate_stats
from repro.slate.daemon import SlateSession

__all__ = ["ServeConfig", "ServerThread", "SlateServer"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a daemon."""

    socket_path: str
    #: Router placement policy.  ``contention`` (the default) is Table-I
    #: contention-penalized least-loaded scoring; ``round-robin`` and
    #: ``least-loaded`` are the class-blind baselines.
    placement: str = "contention"
    #: Scheduling policy every shard's runtime runs (a registered name
    #: from :data:`repro.slate.policy.POLICIES`).
    policy: str = "table1"
    #: Device shards: each owns its own runtime + scheduler + sim engine
    #: and the placement router assigns sessions among them.
    shards: int = 1
    #: Per-shard in-flight cap; ``None`` splits ``max_inflight`` evenly
    #: (ceiling division) so the aggregate budget stays ``max_inflight``.
    shard_inflight: Optional[int] = None
    #: Admission control: reject a launch when this many are in flight
    #: across all sessions and shards (queued + running in schedulers)...
    max_inflight: int = 256
    #: ...or this many for a single session.
    session_inflight: int = 32
    #: Open sessions the daemon will hold at once; further ``hello``\ s
    #: get a ``ServerBusy`` reply.
    max_sessions: int = 64
    #: Bound on scheduler decision/allocation logs and on every device's
    #: rate trace (a long-lived daemon must not hold unbounded history);
    #: ``None`` keeps everything.
    log_limit: Optional[int] = 256
    #: Stop serving after this many wall seconds (None = until stopped).
    duration: Optional[float] = None
    #: SLO targets: a JSON path/text for :func:`repro.obs.slo.load_slo_config`,
    #: or ``None`` for :data:`repro.obs.slo.DEFAULT_TARGETS`.
    slo: Optional[str] = None
    #: Flight-recorder size: the always-on ring keeps this many recent
    #: trace events, and crash/``SIGUSR1`` dumps write at most this many
    #: (the newest of a ``--trace`` capture); ``0`` disables both.
    flight_recorder: int = 4096
    #: Where crash/``SIGUSR1`` ring dumps land; default
    #: ``<socket_path>.flight.json``.
    flight_dump: Optional[str] = None
    #: Extra keyword arguments forwarded to every shard's runtime.
    runtime_kwargs: dict = field(default_factory=dict)

    def flight_dump_path(self) -> Optional[str]:
        """Resolved ring-dump path (None when the recorder is disabled)."""
        if self.flight_recorder <= 0:
            return None
        return self.flight_dump or f"{self.socket_path}.flight.json"

    def shard_inflight_limit(self) -> int:
        """Per-shard in-flight cap (explicit, or the global cap split
        evenly with ceiling division — exactly ``max_inflight`` when
        ``shards == 1``, so single-shard behavior is unchanged)."""
        if self.shard_inflight is not None:
            return self.shard_inflight
        shards = max(1, self.shards)
        return -(-self.max_inflight // shards)


def _sum_scheduler_stats(blocks: list[dict]) -> dict:
    """Sum per-shard scheduler counters into one fleet-wide block."""
    totals: dict = {}
    for block in blocks:
        for key, value in block.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    totals["policy"] = blocks[0]["policy"]
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


class _Connection(asyncio.Protocol):
    """One client connection: frames in, replies out, in arrival order.

    At most one request is in flight per connection.  Frames that arrive
    behind it wait in ``queue`` with reading paused, and serving pauses
    while the transport is over its write high-water mark, so a client
    that writes without reading fills its socket buffers and blocks
    instead of growing the daemon's.
    """

    def __init__(self, server: "SlateServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.sess: Optional[_Session] = None
        self.decoder = FrameDecoder()
        #: Decoded frames not yet served (a FrameError ends the stream).
        self.queue: deque = deque()
        #: A request is in flight on the simulator.
        self.busy = False
        #: Reading paused because frames wait in ``queue``.
        self.paused = False
        #: Writing paused: the transport is over its high-water mark.
        self.blocked = False
        #: Nothing more will be read (peer EOF or a bad frame).
        self.eof = False
        self.closed = False

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.queue.extend(self.decoder.feed(data))
        except FrameError as exc:
            # Answered in order behind what came before it; then the
            # connection closes (a torn stream cannot be resynchronized).
            self.queue.append(exc)
            self.eof = True
        self.serve()

    def eof_received(self) -> bool:
        self.eof = True
        # Keep the transport open to answer what was already read.
        return self.busy or bool(self.queue)

    def pause_writing(self) -> None:
        self.blocked = True

    def resume_writing(self) -> None:
        self.blocked = False
        self.serve()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.closed = True
        self.server._conns.discard(self)
        sess = self.sess
        if sess is not None:
            sess.connected = False
            self.server._finalize(sess)

    # -- serving ---------------------------------------------------------------

    def serve(self) -> None:
        """Serve queued frames until one goes in flight, then adjust reading."""
        queue = self.queue
        server = self.server
        while queue and not (self.busy or self.blocked or self.closed):
            msg = queue.popleft()
            if isinstance(msg, FrameError):
                server._m_errors.inc()
                self.send(error_reply(None, msg))
                self.close()
            else:
                server._dispatch(self, msg)
        if self.closed:
            return
        if queue:
            if not self.paused:
                self.paused = True
                self.transport.pause_reading()
        elif self.eof:
            if not self.busy:
                self.close()
        elif self.paused:
            self.paused = False
            self.transport.resume_reading()

    def send(self, msg: dict) -> None:
        if not self.closed:
            self.transport.write(protocol.encode_frame(msg))

    def close(self) -> None:
        """Close after the replies already written (no more frames served)."""
        if not self.closed:
            self.closed = True
            self.transport.close()


class SlateServer:
    """The daemon: N shards (runtime + scheduler + engine) behind a
    placement router behind a Unix socket."""

    def __init__(self, config: ServeConfig) -> None:
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self.router = PlacementRouter(
            config.shards, placement=config.placement, policy=config.policy
        )
        self._shard_limit = config.shard_inflight_limit()
        self.shards = [InLoopShard(i, config) for i in range(config.shards)]
        self._sessions: dict[int, _Session] = {}
        self._sids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connections (shutdown closes them).
        self._conns: set[_Connection] = set()
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

    # -- introspection -----------------------------------------------------

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def inflight(self) -> int:
        return sum(book.inflight for book in self.router.shards)

    def shard_inflight(self, index: int) -> int:
        return self.router.shards[index].inflight

    def shard_sessions(self, index: int) -> int:
        return self.router.shards[index].sessions

    @property
    def sim_time(self) -> float:
        """The fleet's simulated clock: the furthest-ahead shard's."""
        return max(shard.env.now for shard in self.shards)

    def _shard_blocks(self) -> list[dict]:
        """Per-shard stats blocks for :meth:`stats`."""
        blocks = []
        for book in self.router.shards:
            block = self.shards[book.index].stats()
            block["sessions"] = book.sessions
            block["inflight"] = book.inflight
            block["draining"] = book.draining
            block["placed"] = book.placed
            blocks.append(block)
        return blocks

    def engine_stats(self) -> dict:
        """Engine counters of the whole daemon: the process aggregate plus
        every shard's (shards are only ever stepped, so their engines never
        fold into the aggregate).  The ``metrics`` scrape and
        ``repro serve --dump-metrics`` both report this block."""
        engine = EnvironmentStats()
        zero = engine.snapshot()
        engine.accumulate(zero, aggregate_stats().snapshot())
        for shard in self.shards:
            engine.accumulate(zero, shard.env.stats.snapshot())
        return engine.snapshot()

    def stats(self) -> dict:
        """Server-level snapshot (the ``stats`` op's result body)."""
        shards = self._shard_blocks()
        return {
            "sim_time": self.sim_time,
            "policy": self.config.policy,
            "placement": self.router.placement,
            "shard_count": self.router.num_shards,
            "sessions": self.session_count,
            "inflight": self.inflight,
            "requests": self._m_requests.value,
            "errors": self._m_errors.value,
            "busy_rejections": self._m_busy.value,
            "launches": self._m_launches.value,
            "sessions_opened": self._m_opened.value,
            "sessions_reaped": self._m_reaped.value,
            "sim_pending": sum(shard.driver.pending for shard in self.shards),
            "sim_errors": sum(shard.driver.sim_errors for shard in self.shards),
            "scheduler": _sum_scheduler_stats([block["scheduler"] for block in shards]),
            "shards": shards,
            "uptime": time.monotonic() - self.started_at if self.started_at else 0.0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the shard pool."""
        path = self.config.socket_path
        if os.path.exists(path):
            os.unlink(path)
        for shard in self.shards:
            shard.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_unix_server(
            lambda: _Connection(self), path=path
        )
        self.started_at = time.monotonic()

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
        """Graceful stop: stop listening, drain in-flight sim work, close
        every connection, then finalize what their sessions left behind."""
        if self._server is not None:
            self._server.close()
            self._server = None
        deadline = time.monotonic() + drain_timeout
        while (
            any(shard.driver.pending for shard in self.shards)
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        for conn in list(self._conns):
            conn.closed = True
            conn.transport.abort()
        # Let every aborted transport's connection_lost run.
        await asyncio.sleep(0)
        for sess in list(self._sessions.values()):
            sess.connected = False
            self._finalize(sess, force=True)
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)

    # -- shard draining ----------------------------------------------------

    def request_drain(self, index: int) -> None:
        """Start draining shard ``index`` (callable from any thread).

        The shard stops receiving placements immediately; new launches on
        its resident sessions get ``ShardDraining`` backpressure; launches
        already in flight complete.
        """
        if not 0 <= index < self.router.num_shards:
            raise ValueError(f"no shard {index}")
        self.router.set_draining(index)

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
        return self.shards[sess.shard].env

    # -- connection handling ----------------------------------------------

    def _dispatch(self, conn: _Connection, msg: dict) -> None:
        """Serve one request: reply now, or put it in flight on the sim."""
        self._m_requests.inc()
        t0 = time.monotonic()
        rid = msg.get("id")
        try:
            rid, op, params = validate_request(msg)
            sess = conn.sess
            if op == "hello":
                if sess is not None:
                    raise SessionStateError(
                        f"session {sess.name} is already open on this connection"
                    )
                conn.sess, result = self._op_hello(params)
            elif op == "ping":
                result = {"pong": True, "sim_time": self.sim_time}
            elif op == "stats":
                # Session-less stats: any monitor polls load without
                # opening a session.
                result = self._op_stats(sess)
            elif op == "metrics":
                # Session-less telemetry scrape: registry export, per-shard
                # fleet view, SLO view, recent ring events.
                result = self._op_metrics(params)
            elif sess is None:
                raise SessionStateError(f"op {op!r} requires a hello first")
            elif op == "launch":
                self._op_launch(conn, rid, params, t0)
                return
            elif op == "register":
                self._op_register(conn, rid, params, t0)
                return
            else:  # bye
                result = {"bye": True}
            self._reply(conn, op, rid, result, t0)
        except Exception as exc:
            self._reply_error(conn, rid, exc)
            return
        if op == "bye":
            conn.close()

    def _submit(
        self, conn: _Connection, op: str, rid, t0: float, gen: Generator,
        build: Callable[[object], dict], release: Optional[Callable[[], None]] = None,
    ) -> None:
        """Put ``gen`` in flight for ``conn``; its reply is ``build(result)``.

        ``SimDriver`` calls back after the step batch the process finished in:
        ``release`` runs first, then the reply (or a typed error, also when
        ``build`` fails) is written and the connection serves its next
        frame.
        """

        def done(value, exc: Optional[BaseException]) -> None:
            conn.busy = False
            if release is not None:
                release()
            try:
                if exc is not None:
                    raise exc
                self._reply(conn, op, rid, build(value), t0)
            except Exception as err:
                self._reply_error(conn, rid, err)
            conn.serve()

        conn.busy = True
        self.shards[conn.sess.shard].driver.submit(gen, done)

    def _reply(self, conn: _Connection, op: str, rid, result: dict, t0: float) -> None:
        wall = time.monotonic() - t0
        self._h_latency[op].observe(wall)
        # Score against any SLO targeting this op's wall latency
        # (dict-lookup no-op for untracked metrics).
        self.slo.record(f"serve.latency.{op}", wall)
        conn.send(ok_reply(rid, result))

    def _reply_error(self, conn: _Connection, rid, exc: Exception) -> None:
        self._m_errors.inc()
        if conn.sess is not None:
            conn.sess.errors += 1
        if isinstance(exc, BackpressureError):
            self._m_busy.inc()
        conn.send(error_reply(rid, exc))
        # Protocol violations poison the stream; typed app errors don't.
        if isinstance(exc, ProtocolError) and not isinstance(exc, VersionMismatchError):
            conn.close()

    # -- operations --------------------------------------------------------

    def _op_hello(self, params: dict) -> tuple[_Session, dict]:
        version = params.get("version")
        if version != PROTOCOL_VERSION:
            raise VersionMismatchError(
                f"client protocol version {version!r} not supported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        pin = params.get("shard")
        if pin is not None and type(pin) is not int:
            raise ProtocolError(f"hello shard must be an integer or null, got {pin!r}")
        if len(self._sessions) >= self.config.max_sessions:
            raise ServerBusyError(
                f"session table full ({self.config.max_sessions})", retry_after=0.1
            )
        sid = next(self._sids)
        name = str(params.get("name") or f"client-{sid}")
        session_name = f"{name}#{sid}"
        hint = params.get("kernel_hint")
        # Every shard is built from one config, so shard 0 classifies for all.
        candidate = self.shards[0].classify(hint)
        affinity = params.get("affinity")
        shard_index = self.router.pick(
            session_name, candidate, affinity=affinity, pin=pin
        )
        shard = self.shards[shard_index]
        if obs_trace.ENABLED:
            decision = self.router.decisions[-1]
            obs_trace.instant(
                "router.place",
                shard.env.now,
                "serve",
                session_name,
                shard=shard_index,
                reason=decision.reason,
                score=decision.score,
                kernel_hint=hint,
            )
        slate = shard.open_session(session_name, kernel_hint=hint)
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
        }

    def _resolve_spec(self, params: dict) -> KernelSpec:
        kernel = params.get("kernel")
        if not isinstance(kernel, str):
            raise ProtocolError(f"launch/register needs a kernel name, got {kernel!r}")
        return by_name(kernel)

    def _op_register(self, conn: _Connection, rid, params: dict, t0: float) -> None:
        sess = conn.sess
        spec = self._resolve_spec(params)
        env = self._shard_env(sess)

        def gen() -> Generator:
            yield sess.slate.pipe.command()
            t0 = env.now
            yield from sess.slate.runtime.prepare_kernel(spec)
            return env.now - t0

        def build(compile_time) -> dict:
            return {"kernel": spec.name, "compile_time": compile_time}

        self._submit(conn, "register", rid, t0, gen(), build)

    def _admit(self, sess: _Session) -> None:
        book = self.router.shards[sess.shard]
        if book.draining:
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
        if book.inflight >= self._shard_limit:
            raise ServerBusyError(
                f"shard {sess.shard} has {book.inflight} launches in flight "
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
        observed = self.shards[sess.shard].classify(spec.name)
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

    def _op_launch(self, conn: _Connection, rid, params: dict, t0: float) -> None:
        sess = conn.sess
        spec = self._resolve_spec(params)
        task_size = params.get("task_size")
        if task_size is not None and (type(task_size) is not int or task_size < 1):
            raise ProtocolError(
                f"launch task_size must be an integer >= 1, got {task_size!r}"
            )
        priority = params.get("priority", 0)
        if type(priority) is not int:
            raise ProtocolError(f"launch priority must be an integer, got {priority!r}")
        deadline = params.get("deadline")
        if deadline is not None:
            if type(deadline) not in (int, float) or not math.isfinite(deadline):
                raise ProtocolError(
                    "launch deadline must be a finite number or null, "
                    f"got {deadline!r}"
                )
            deadline = float(deadline)
        self._note_observed_class(sess, spec)
        self._admit(sess)
        shard_index = sess.shard
        gen = self.shards[shard_index].launch(
            sess.slate, spec, task_size, priority, deadline, rid
        )
        book = self.router.shards[shard_index]
        sess.inflight += 1
        book.inflight += 1
        self._g_inflight.set(self.inflight)
        self._g_shard_inflight[shard_index].set(book.inflight)

        def release() -> None:
            sess.inflight -= 1
            book.inflight -= 1
            self._g_inflight.set(self.inflight)
            self._g_shard_inflight[shard_index].set(book.inflight)
            self._finalize(sess)

        def build(value) -> dict:
            ticket, sim_start, sim_end = value
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

        self._submit(conn, "launch", rid, t0, gen, build, release)

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

        Every shard shares this process's registry, so its export already
        *is* the fleet view; the per-shard rows add each shard's sim clock
        (and its skew behind the fleet max), sessions, in-flight launches
        and stats block, and the clocks are mirrored into the export as
        ``fleet.shard.<i>.sim_time`` / ``fleet.shard.<i>.sim_skew`` gauges.
        The ``engine`` source is :meth:`engine_stats`, which adds the
        shards' engines to the process aggregate.
        """
        recent = params.get("recent")
        if recent is not None and (type(recent) is not int or recent < 0):
            raise ProtocolError(
                f"metrics recent must be an integer >= 0 or null, got {recent!r}"
            )
        sink = obs_trace.get_sink()
        if sink is not None:
            sink.evicted  # sync obs.recorder.evicted before the export
        state = obs_registry().export_state()
        state["sources"]["engine"] = self.engine_stats()
        gauges = state["gauges"]
        sim_time = self.sim_time
        shards: dict[str, dict] = {}
        for shard in self.shards:
            skew = sim_time - shard.env.now
            gauges[f"fleet.shard.{shard.index}.sim_time"] = shard.env.now
            gauges[f"fleet.shard.{shard.index}.sim_skew"] = skew
            shards[str(shard.index)] = {
                "sim_time": shard.env.now,
                "sim_skew": skew,
                "sessions": self.shard_sessions(shard.index),
                "inflight": self.shard_inflight(shard.index),
                "stats": shard.stats(),
            }
        result = {
            "registry": state,
            "shards": shards,
            "sim_time": sim_time,
            "wall": time.time(),
            "slo": self.slo.snapshot(),
            "protocol": PROTOCOL_VERSION,
            "shard_count": self.router.num_shards,
        }
        if recent:
            if sink is not None:
                limit = min(recent, self.RECENT_LIMIT)
                result["recent"] = [encode_event(e) for e in sink.events(limit)]
                result["recorder"] = {
                    "size": len(sink),
                    "capacity": sink.capacity,
                    "evicted": sink.evicted,
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
