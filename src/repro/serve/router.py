"""Shard pool and workload-aware placement router for the serving daemon.

One Slate runtime serializes every request behind one scheduler and
one discrete-event engine.  Sharding splits the fleet into N independent
*shards* — each owns its own :class:`~repro.sim.Environment`,
:class:`~repro.slate.daemon.SlateRuntime` (one simulated device and its
scheduler), and :class:`~repro.serve.server.SimDriver` — fronted by a
:class:`PlacementRouter` that decides, once per session at ``hello``,
which shard a client lands on.  Each shard is a set of objects plus its
own driver inside the daemon's asyncio loop (:class:`InLoopShard`):
one process, shared wall clock, fully-consistent router bookkeeping.

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

Placement is deterministic for a fixed arrival sequence, and
honours *session affinity* (an opaque ``affinity`` key in ``hello``
pins same-keyed sessions to one shard) and *draining* (a draining shard
accepts no placements and rejects new launches while its in-flight work
completes).
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Optional

from repro.config import TITAN_XP
from repro.kernels.registry import by_name
from repro.serve.protocol import ProtocolError, ShardDrainingError
from repro.slate.placement import ShardView, choose_shard
from repro.slate.policy import make_policy
from repro.slate.profiler import offline_profile

__all__ = [
    "ROUTER_PLACEMENTS",
    "InLoopShard",
    "PlacementRouter",
    "RouteDecision",
]

#: Router-level placement policies (``repro serve --placement``).
ROUTER_PLACEMENTS = ("contention", "round-robin", "least-loaded")


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
    """The one ledger of a shard's open sessions and in-flight launches
    (placement load, admission and the daemon's stats all read it)."""

    __slots__ = ("index", "residents", "sessions", "inflight", "draining", "placed")

    def __init__(self, index: int) -> None:
        self.index = index
        #: session name -> intensity class (hint-less sessions absent).
        self.residents: dict = {}
        self.sessions = 0
        self.inflight = 0
        self.draining = False
        #: lifetime placements (never decremented; diagnostics).
        self.placed = 0

    @property
    def load(self) -> float:
        return float(self.sessions + self.inflight)


class PlacementRouter:
    """Scores shards and assigns sessions; pure bookkeeping, no I/O.

    The router is deliberately synchronous and deterministic: identical
    arrival sequences (names, hints, affinities) produce identical
    placements, which the property tests pin.
    """

    def __init__(
        self,
        num_shards: int,
        placement: str = "contention",
        policy=None,
        device=None,
    ) -> None:
        if placement not in ROUTER_PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; known: {ROUTER_PLACEMENTS}"
            )
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.placement = placement
        self.policy = make_policy(policy)
        self.device = device if device is not None else TITAN_XP
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
        if candidate is not None:
            book.residents[session] = candidate

    def note_close(self, index: int, session: str) -> None:
        book = self.shards[index]
        book.sessions = max(0, book.sessions - 1)
        book.residents.pop(session, None)

    def set_draining(self, index: int, draining: bool = True) -> None:
        self.shards[index].draining = draining


class InLoopShard:
    """One in-loop shard: its own sim environment, Slate runtime, and driver.

    The server builds N of these and routes sessions among them; every
    shard's profile table starts seeded with the benchmark kernels.
    """

    def __init__(self, index: int, config) -> None:
        # Late imports: server.py imports this module.
        from repro.kernels.registry import SHORT_NAMES
        from repro.serve.server import SimDriver
        from repro.sim import Environment
        from repro.slate.daemon import SlateRuntime

        self.index = index
        self.config = config
        self.env = Environment()
        self.runtime = SlateRuntime(
            self.env,
            policy=config.policy,
            log_limit=config.log_limit,
            rate_trace_limit=config.log_limit,
            **config.runtime_kwargs,
        )
        self.runtime.preload_profiles([by_name(n) for n in SHORT_NAMES])
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
