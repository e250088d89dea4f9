"""The daemon's fleet front: the placement router and its in-loop shards.

One Slate runtime serializes every request behind one scheduler and one
discrete-event engine.  Sharding splits the fleet into N independent
*shards*, each an :class:`InLoopShard`: a
:class:`~repro.slate.placement.Shard` (its own
:class:`~repro.sim.Environment` and
:class:`~repro.slate.daemon.SlateRuntime`) whose engine a
:class:`SimDriver` steps from callbacks on the daemon's asyncio loop —
one process, shared wall clock, fully-consistent bookkeeping.  A
:class:`PlacementRouter` decides, once per session at ``hello``, which
shard a client lands on.

Placement is the :class:`~repro.slate.placement.PlacementBook`'s (see
:mod:`repro.slate.placement` for ``contention``, ``least-loaded`` and
``round-robin``); the router adds what only the wire has: *session
affinity* (an opaque ``affinity`` key in ``hello`` pins same-keyed
sessions to one shard), explicit shard pins, and typed errors for
*draining* (a draining shard accepts no placements and rejects new
launches while its in-flight work completes).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Generator, Optional

from repro.serve.protocol import ProtocolError, ShardDrainingError
from repro.sim import Environment
from repro.sim.engine import EmptySchedule
from repro.slate.placement import PlacementBook, Shard

__all__ = ["InLoopShard", "PlacementRouter", "RouteDecision", "SimDriver"]


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


class PlacementRouter(PlacementBook):
    """The placement book plus pins, affinity and typed draining errors.

    Deliberately synchronous and deterministic: identical arrival
    sequences (names, hints, affinities) produce identical placements,
    which the property tests pin.
    """

    def __init__(
        self, num_shards: int, placement: str = "contention", policy=None
    ) -> None:
        super().__init__(num_shards, placement, policy)
        self._affinity: dict[str, int] = {}
        self.decisions: deque = deque(maxlen=256)

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
        every) shard is draining and :class:`ProtocolError` on an invalid
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
        if all(book.draining for book in self.shards):
            raise ShardDrainingError(
                "every shard is draining; no placement possible", retry_after=0.1
            )
        index, score = self.place(candidate)
        if affinity is not None:
            self._affinity[affinity] = index
        return self._commit(session, index, candidate, score, "placement")

    def _commit(self, session, index, candidate, score, reason) -> int:
        self.decisions.append(
            RouteDecision(session, index, candidate, score, reason)
        )
        return index


class SimDriver:
    """Advance the discrete-event engine cooperatively inside asyncio.

    Requests call :meth:`submit` with a process generator and a completion
    callback.  The engine is stepped from loop callbacks while events are
    pending and, after the step batch in which the process finished,
    ``done(result, None)`` is called with the generator's return value or
    ``done(None, exc)`` with its exception — outside any engine step, so
    a callback may submit more work.  The generator runs under a guard,
    so a failing request can never crash the engine loop for everyone
    else.
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
        #: (done, result, exc) of processes finished in the current batch.
        self._finished: list = []

    def submit(
        self, gen: Generator, done: Callable[[object, Optional[BaseException]], None]
    ) -> None:
        """Run ``gen`` as a sim process; ``done`` is called on completion."""
        finished = self._finished

        def guarded() -> Generator:
            try:
                result = yield from gen
            except Exception as exc:
                finished.append((done, None, exc))
            else:
                finished.append((done, result, None))
            finally:
                self.pending -= 1

        self.pending += 1
        self.env.process(guarded())
        if not self._scheduled:
            self._scheduled = True
            self.loop.call_soon(self._pump)

    def _pump(self) -> None:
        """Step up to ``STEP_BATCH`` events, then complete what finished;
        call again while work remains."""
        step = self.env.step
        for _ in range(self.STEP_BATCH):
            try:
                step()
            except EmptySchedule:
                self._scheduled = False
                break
            except Exception:
                # A failed event outside any guarded process; count it
                # and keep serving (the guilty request already got its
                # error through the guard, or was fire-and-forget).
                self.sim_errors += 1
        else:
            self.loop.call_soon(self._pump)
        finished = self._finished
        while finished:
            done, result, exc = finished.pop(0)
            done(result, exc)


class InLoopShard(Shard):
    """One daemon shard: a :class:`~repro.slate.placement.Shard` built from
    the :class:`~repro.serve.server.ServeConfig`, plus the
    :class:`SimDriver` that steps it on the daemon's event loop."""

    def __init__(self, index: int, config) -> None:
        super().__init__(
            index, config.policy, config.log_limit, **config.runtime_kwargs
        )
        self.driver = SimDriver(self.env)

    def start(self) -> None:
        """Bind the shard's driver to the running event loop."""
        self.driver.loop = asyncio.get_running_loop()

    def stats(self) -> dict:
        sched = self.runtime.scheduler
        return {
            "shard": self.index,
            "sim_time": self.env.now,
            "sim_pending": self.driver.pending,
            "sim_errors": self.driver.sim_errors,
            "scheduler": {
                "decisions": sched.decisions_total,
                "solo_launches": sched.solo_launches,
                "corun_launches": sched.corun_launches,
                "resizes": sched.resizes,
                "preemptions": sched.preemptions,
                "rejections": sched.rejections,
                "waiting": sched.waiting_count,
                "running": sched.running_count,
                "policy": sched.policy.name,
            },
            "occupancy": {
                "covered_sms": sum(
                    len(entry.sms) for entry in sched.running_entries()
                ),
                "num_sms": self.runtime.device.num_sms,
            },
        }
