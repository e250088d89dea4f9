"""Synchronous client library for the Slate serving daemon.

The served analogue of the paper's Slate API library: a plain Python
process creates a :class:`SlateClient`, which connects to the daemon's
Unix socket (with retry while the daemon is still coming up), performs the
``hello`` version handshake, and then relays operations synchronously —
one outstanding request per connection, exactly like a blocking CUDA
client thread.  Concurrency comes from running many client processes (see
:mod:`repro.serve.loadgen`).

Typed server errors re-raise client-side as the same exception classes
(:data:`repro.serve.protocol.ERROR_TYPES`), so ``except UnknownKernelError``
behaves identically in-process and across the socket.  Backpressure replies
(``ServerBusy`` / ``SessionLimit`` / ``ShardDraining``) can be retried
automatically via ``launch(..., busy_retries=N)``: each sleep honours the
server's ``retry_after`` hint as a *floor* and adds deterministic, seeded
exponential jitter on top (``backoff_seed``), so a thundering herd of
rejected clients de-synchronizes reproducibly.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass
from typing import Optional

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BackpressureError,
    MessageStream,
    ProtocolError,
    error_from_reply,
    request,
)

__all__ = ["LaunchReply", "SlateClient"]


@dataclass(frozen=True)
class LaunchReply:
    """One completed launch as seen by the client."""

    kernel: str
    #: Wall-clock request latency (send -> reply), seconds.  Excludes
    #: backoff sleeps: it times only the attempt that was admitted.
    latency: float
    #: Simulated timestamps from the daemon's DES clock.
    sim_submitted: float
    sim_finished: float
    sim_started: Optional[float] = None
    #: Device-side execution time of the kernel (simulated seconds).
    sim_exec: Optional[float] = None
    task_size: int = 0
    priority: int = 0
    preemptions: int = 0
    #: Busy/backpressure retries spent before this launch was admitted.
    retries: int = 0
    #: Wall-clock latency including every backoff sleep and retried
    #: attempt (first send -> final reply) — what the *user* waited.
    total_latency: float = 0.0

    @property
    def sim_latency(self) -> float:
        """Queueing + execution time on the simulated GPU."""
        return self.sim_finished - self.sim_submitted


class SlateClient:
    """Blocking client for one daemon session (context-manager friendly)."""

    def __init__(
        self,
        socket_path: str,
        name: Optional[str] = None,
        timeout: float = 60.0,
        connect_retries: int = 100,
        connect_delay: float = 0.05,
        kernel_hint: Optional[str] = None,
        affinity: Optional[str] = None,
        shard: Optional[int] = None,
        backoff_seed: Optional[str] = None,
    ) -> None:
        self.socket_path = socket_path
        self.name = name
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_delay = connect_delay
        self.kernel_hint = kernel_hint
        #: Opaque stickiness key: sessions sharing it land on one shard.
        self.affinity = affinity
        #: Explicit shard pin (validated server-side).
        self.shard_pin = shard
        #: Shard this session was placed on (None before connect).
        self.shard: Optional[int] = None
        self.session: Optional[int] = None
        self.session_name: Optional[str] = None
        self._stream: Optional[MessageStream] = None
        self._rids = itertools.count(1)
        self._backoff_rng = random.Random(
            backoff_seed if backoff_seed is not None else (name or socket_path)
        )

    # -- connection --------------------------------------------------------

    def connect(self) -> dict:
        """Connect (retrying while the socket is absent) and handshake."""
        last: Optional[Exception] = None
        for attempt in range(self.connect_retries + 1):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError) as exc:
                sock.close()
                last = exc
                if attempt == self.connect_retries:
                    break
                time.sleep(self.connect_delay)
                continue
            sock.settimeout(self.timeout)
            self._stream = MessageStream(sock)
            params = {"version": PROTOCOL_VERSION}
            if self.name is not None:
                params["name"] = self.name
            if self.kernel_hint is not None:
                params["kernel_hint"] = self.kernel_hint
            if self.affinity is not None:
                params["affinity"] = self.affinity
            if self.shard_pin is not None:
                params["shard"] = self.shard_pin
            try:
                result = self._call("hello", **params)
            except BaseException:
                # A refused handshake leaves no half-open client behind.
                self._stream = None
                sock.close()
                raise
            self.session = result["session"]
            self.session_name = result["name"]
            self.shard = result["shard"]
            return result
        raise ConnectionError(
            f"could not connect to Slate daemon at {self.socket_path!r} "
            f"after {self.connect_retries + 1} attempts: {last}"
        )

    @property
    def connected(self) -> bool:
        return self._stream is not None

    def close(self) -> None:
        """Send ``bye`` (best effort) and close the socket."""
        stream = self._stream
        if stream is None:
            return
        try:
            self._call("bye")
        except Exception:
            pass
        finally:
            self._stream = None
            self.session = None
            try:
                stream.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SlateClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _call(self, op: str, **params) -> dict:
        if self._stream is None:
            raise ConnectionError("client is not connected (call connect())")
        rid = next(self._rids)
        self._stream.send(request(rid, op, **params))
        reply = self._stream.recv()
        got = reply.get("id")
        if got != rid:
            raise ProtocolError(f"reply id {got!r} does not match request {rid}")
        if not reply.get("ok"):
            raise error_from_reply(reply)
        return reply.get("result") or {}

    # -- operations --------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")

    def register(self, kernel: str) -> dict:
        """Compile/inject ``kernel`` daemon-side ahead of the first launch."""
        return self._call("register", kernel=kernel)

    def launch(
        self,
        kernel: str,
        task_size: Optional[int] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        busy_retries: int = 0,
        busy_backoff: float = 0.01,
    ) -> LaunchReply:
        """Launch ``kernel`` and block until the daemon reports completion.

        ``busy_retries`` > 0 retries backpressure rejections.  Each sleep
        is the server's ``retry_after`` hint (a floor, always honoured)
        plus deterministic jitter drawn from the client's seeded RNG,
        scaled by ``busy_backoff * 2**retries`` and capped at 1 s per
        sleep — rejected clients back off reproducibly but not in
        lockstep.  ``deadline`` is an absolute sim-time completion
        deadline; deadline-aware server policies may reject it
        (``AdmissionRejected`` raises here, typed, like any server error).
        """
        params: dict = {"kernel": kernel, "priority": priority}
        if task_size is not None:
            params["task_size"] = task_size
        if deadline is not None:
            params["deadline"] = deadline
        retries = 0
        t_first = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                result = self._call("launch", **params)
            except BackpressureError as exc:
                if retries >= busy_retries:
                    raise
                time.sleep(
                    self._backoff_delay(exc.retry_after, retries, busy_backoff)
                )
                retries += 1
                continue
            now = time.perf_counter()
            return LaunchReply(
                kernel=result["kernel"],
                latency=now - t0,
                sim_submitted=result["sim_submitted"],
                sim_finished=result["sim_finished"],
                sim_started=result.get("sim_started"),
                sim_exec=result.get("sim_exec"),
                task_size=result.get("task_size", 0),
                priority=result.get("priority", 0),
                preemptions=result.get("preemptions", 0),
                retries=retries,
                total_latency=now - t_first,
            )

    def _backoff_delay(
        self, retry_after: float, retries: int, busy_backoff: float = 0.01
    ) -> float:
        """Backoff sleep for retry ``retries``: the server's hint as a
        floor plus seeded exponential jitter (``busy_backoff * 2**retries``
        scale), capped at 1 s.

        Exposed (privately) so the backoff regression tests can pin both
        properties without sleeping.
        """
        jitter = self._backoff_rng.random()
        return min(retry_after + jitter * busy_backoff * (2 ** retries), 1.0)

    def stats(self) -> dict:
        """Server + session statistics snapshot."""
        return self._call("stats")

    def metrics(self, recent: Optional[int] = None) -> dict:
        """Fleet metrics (v2 ``metrics`` op): the daemon's registry plus
        per-shard rows.

        ``recent`` > 0 additionally asks for the last N flight-recorder
        events (capped server-side).
        """
        params = {} if recent is None else {"recent": recent}
        return self._call("metrics", **params)
