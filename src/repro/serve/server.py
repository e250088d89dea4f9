"""The Slate serving daemon: real sockets in front of the simulated GPU.

Architecture
------------
One asyncio event loop owns everything — there are no threads and no locks
around the simulator:

* ``asyncio.start_unix_server`` accepts client connections; each connection
  gets a handler task and (after ``hello``) one :class:`~repro.slate.daemon.
  SlateSession` from its shard's :class:`~repro.slate.daemon.SlateRuntime`,
  mirroring the paper's one-session-per-client-process design (§IV-A2).
* :class:`SimDriver` steps a discrete-event engine from loop callbacks,
  a bounded batch per callback, so new frames keep flowing while the
  simulated GPU grinds; with no events pending nothing is scheduled.
  Request handlers never call ``env.run`` — they submit a process
  generator and await an :class:`asyncio.Future` resolved when the sim
  process finishes.
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
placement scoring (see :mod:`repro.serve.router`).  Every shard is an
:class:`~repro.serve.router.InLoopShard` inside the daemon's event loop,
so every connection takes one path: a ``hello`` placed onto a shard,
then requests served on that same connection.

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
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.kernels.kernel import KernelSpec
from repro.kernels.registry import by_name
from repro.obs import trace as obs_trace
from repro.obs.recorder import get_recorder
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
from repro.sim import Environment
from repro.slate.daemon import SlateSession

__all__ = ["ServeConfig", "ServerThread", "SimDriver", "SlateServer"]


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
    #: Flight-recorder ring capacity (recent trace events kept even with
    #: the full sink disabled); ``0`` disables the recorder.
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


class SimDriver:
    """Advance the discrete-event engine cooperatively inside asyncio.

    Handlers call :meth:`submit` with a process generator; the driver
    steps the engine from loop callbacks while events are pending and
    resolves the returned future with the generator's return value (or
    its exception).  The generator runs under a guard, so a failing
    request can never crash the engine loop for everyone else.
    """

    #: Engine events stepped per loop callback — the trade-off between
    #: sim throughput and socket latency.
    STEP_BATCH = 512

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.pending = 0
        self.sim_errors = 0
        #: The daemon's event loop, bound by :meth:`InLoopShard.start`.
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._scheduled = False

    def submit(self, gen: Generator) -> "asyncio.Future":
        """Run ``gen`` as a sim process; the future resolves on completion."""
        future = self.loop.create_future()

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
        if not self._scheduled:
            self._scheduled = True
            self.loop.call_soon(self._pump)
        return future

    def _pump(self) -> None:
        """Step up to ``STEP_BATCH`` events; call again while work remains."""
        env = self.env
        inf = float("inf")
        steps = self.STEP_BATCH
        while steps > 0 and env.peek() != inf:
            try:
                env.step()
            except Exception:
                # A failed event outside any guarded process; count it
                # and keep serving (the guilty request already got its
                # error through the guard, or was fire-and-forget).
                self.sim_errors += 1
            steps -= 1
        if env.peek() == inf:
            self._scheduled = False
        else:
            self.loop.call_soon(self._pump)


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


class SlateServer:
    """The daemon: N shards (runtime + scheduler + engine) behind a
    placement router behind a Unix socket."""

    def __init__(self, config: ServeConfig) -> None:
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self.router = PlacementRouter(
            config.shards,
            placement=config.placement,
            policy=config.policy,
            device=config.runtime_kwargs.get("device"),
        )
        self._shard_limit = config.shard_inflight_limit()
        self.shards = [InLoopShard(i, config) for i in range(config.shards)]
        # Single-shard compatibility aliases (tests, tools, and the
        # pre-shard API poke server.env/runtime/driver — shard 0).
        self.env = self.shards[0].env
        self.runtime = self.shards[0].runtime
        self.driver = self.shards[0].driver
        self._sessions: dict[int, _Session] = {}
        self._sids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()
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
        self._server = await asyncio.start_unix_server(self._handle, path=path)
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
        """Graceful stop: no new connections, drain in-flight sim work."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + drain_timeout
        while (
            any(shard.driver.pending for shard in self.shards)
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        pending_tasks = list(self._conn_tasks)
        for task in pending_tasks:
            task.cancel()
        if pending_tasks:
            await asyncio.gather(*pending_tasks, return_exceptions=True)
        # Finalize anything a cancelled handler left behind.
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

    def _shard_driver(self, sess: _Session) -> SimDriver:
        return self.shards[sess.shard].driver

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
                for msg in messages:
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

    def _op_hello(self, params: dict) -> tuple[_Session, dict]:
        version = params.get("version")
        if version != PROTOCOL_VERSION:
            raise VersionMismatchError(
                f"client protocol version {version!r} not supported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        if len(self._sessions) >= self.config.max_sessions:
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
        if hint is not None:
            # Offline-profile the hinted kernel (§III-B1) so its first
            # launch skips the profiling run.
            shard.runtime.preload_profiles([by_name(str(hint))])
        slate = shard.runtime.create_session(session_name)
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

        book = self.router.shards[shard_index]
        sess.inflight += 1
        book.inflight += 1
        self._g_inflight.set(self.inflight)
        self._g_shard_inflight[shard_index].set(book.inflight)
        try:
            ticket, sim_start, sim_end = await self._shard_driver(sess).submit(gen())
        finally:
            sess.inflight -= 1
            book.inflight -= 1
            self._g_inflight.set(self.inflight)
            self._g_shard_inflight[shard_index].set(book.inflight)
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

        Every shard shares this process's registry, so its export already
        *is* the fleet view; the per-shard rows add each shard's sim clock
        (and its skew behind the fleet max), sessions, in-flight launches
        and stats block, and the clocks are mirrored into the export as
        ``fleet.shard.<i>.sim_time`` / ``fleet.shard.<i>.sim_skew`` gauges.
        """
        recorder = get_recorder()
        if recorder is not None:
            recorder.evicted  # sync obs.recorder.evicted before the export
        state = obs_registry().export_state()
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
