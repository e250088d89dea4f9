"""The fleet: simulated GPUs (shards) behind one placement book.

Slate's core insight is that *which kernels share a GPU* decides
efficiency (Table I, §III-B2).  Within one device the scheduler consults
the policy per launch; at the fleet level the same question appears once
per *session*: a new client must be assigned to one of N shards, each
already holding residents of known intensity classes.  This module lifts
the per-GPU pairing decision to that partition/allocate formulation — the
contention-aware GPU-partitioning problem — and holds its one
implementation: the :class:`PlacementBook` that places sessions and the
:class:`Shard` that runs them.  The serving daemon
(:class:`repro.serve.router.PlacementRouter` over
:class:`repro.serve.router.InLoopShard`\\ s), the ``cluster`` experiment
and the router's sim-time claims all place and run through them.

Placements
----------
``contention`` (default)
    Contention-penalized least-loaded: the policy's
    :meth:`~repro.slate.policy.SchedulingPolicy.placement_score`, by
    default one :data:`INCOMPATIBILITY_PENALTY` per resident the
    candidate must not share with (the order-insensitive
    ``placement_compatible``, from the same Table-I machinery as
    ``may_corun``) plus the shard's load.  Lower is better, so it
    co-locates compatible classes, spreads antagonists (an empty or
    compatible shard always wins) and balances load among equally
    compatible shards.  A session without a hint is placed least-loaded.
``least-loaded``
    Fewest open sessions plus in-flight launches, ignoring classes.
``round-robin``
    Shards in turn — the contention-blind baseline.

Everything here is deterministic: ties break on (score, load, index),
never on iteration order or randomness, so a fixed arrival sequence
always places identically — the router property tests pin this.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional, Sequence

from repro.kernels.kernel import KernelSpec
from repro.kernels.registry import SHORT_NAMES, by_name
from repro.obs import trace as obs_trace
from repro.sim import Environment
from repro.slate.classify import IntensityClass as C
from repro.slate.daemon import SlateRuntime, SlateSession
from repro.slate.policy import SchedulingPolicy, make_policy
from repro.slate.profiler import offline_profile

__all__ = [
    "INCOMPATIBILITY_PENALTY",
    "PLACEMENTS",
    "PlacementBook",
    "Shard",
    "ShardBook",
    "contention_score",
]

#: The placements a book knows (``repro serve --placement``).
PLACEMENTS = ("contention", "round-robin", "least-loaded")

#: Cost of one policy-incompatible co-resident.  Any load difference a
#: realistic shard can show is far below this, so compatibility strictly
#: dominates balance (a compatible-but-busy shard beats an antagonist-
#: but-idle one).
INCOMPATIBILITY_PENALTY = 1024.0


def contention_score(
    policy: SchedulingPolicy,
    residents: Sequence[C],
    candidate: Optional[C],
    load: float = 0.0,
) -> float:
    """Default contention-penalized least-loaded score (lower is better).

    Delegates to ``policy.placement_compatible`` per resident, so a
    policy that shares blindly (``mps-leftover``) degrades this to plain
    least-loaded, and a custom :class:`~repro.slate.policy.PolicyTable`
    changes the antagonist set everywhere at once.
    """
    if candidate is None:
        return float(load)
    conflicts = sum(
        1 for resident in residents
        if not policy.placement_compatible(resident, candidate)
    )
    return conflicts * INCOMPATIBILITY_PENALTY + float(load)


class ShardBook:
    """The one ledger of a shard's open sessions and in-flight launches
    (placement load, the daemon's admission and its stats all read it)."""

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


class PlacementBook:
    """Places sessions on N shards and keeps their ledgers; no I/O.

    Identical arrival sequences (hints, opens, closes) produce identical
    placements.
    """

    def __init__(
        self, num_shards: int, placement: str = "contention", policy=None
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; known: {PLACEMENTS}")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.placement = placement
        self.policy = make_policy(policy)
        self.shards = [ShardBook(i) for i in range(num_shards)]
        self._rr = itertools.cycle(range(num_shards))

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def place(self, candidate=None) -> tuple[int, Optional[float]]:
        """The shard for a new session of class ``candidate`` (None: no
        hint) and its score, ``(index, score)``.

        Raises :class:`ValueError` when every shard is draining.
        """
        active = [book for book in self.shards if not book.draining]
        if not active:
            raise ValueError("no shard accepts placements (all draining)")
        if self.placement == "round-robin":
            while True:
                index = next(self._rr)
                if not self.shards[index].draining:
                    return index, None
        if self.placement == "least-loaded" or candidate is None:
            book = min(active, key=lambda b: (b.load, b.index))
            return book.index, book.load
        score = self.policy.placement_score
        best, _, index = min(
            (score(tuple(b.residents.values()), candidate, b.load), b.load, b.index)
            for b in active
        )
        return index, best

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


class Shard:
    """One simulated GPU of a fleet: its own environment and Slate runtime,
    with every benchmark kernel's profile preloaded.

    ``log_limit`` bounds the scheduler's logs and the device's rate trace;
    ``policy`` and ``runtime_kwargs`` go to the :class:`SlateRuntime`.
    The shards of one fleet share one configuration, so any of them
    classifies a session's hint for the book.
    """

    def __init__(
        self, index: int, policy=None, log_limit: Optional[int] = None, **runtime_kwargs
    ) -> None:
        self.index = index
        self.env = Environment()
        self.runtime = SlateRuntime(
            self.env,
            policy=policy,
            log_limit=log_limit,
            rate_trace_limit=log_limit,
            **runtime_kwargs,
        )
        self.runtime.preload_profiles([by_name(n) for n in SHORT_NAMES])
        self._classes: dict[str, object] = {}

    def classify(self, kernel_name: Optional[str]):
        """Intensity class of a hinted kernel as this shard's runtime
        profiles it (its device, cost model and classification basis),
        memoized per name.  Nothing is written into the runtime's profile
        table; :meth:`open_session` preloads the hint there."""
        if kernel_name is None:
            return None
        name = str(kernel_name)
        cls = self._classes.get(name)
        if cls is None:
            runtime = self.runtime
            cls = offline_profile(
                by_name(name), runtime.device, runtime.costs,
                basis=runtime.profiles.basis,
            ).intensity
            self._classes[name] = cls
        return cls

    def open_session(self, name: str, kernel_hint: Optional[str] = None) -> SlateSession:
        """Open a session; a hinted kernel is offline-profiled first
        (§III-B1), so its first launch skips the profiling run."""
        if kernel_hint is not None:
            self.runtime.preload_profiles([by_name(str(kernel_hint))])
        return self.runtime.create_session(name)

    def launch(
        self,
        session: SlateSession,
        spec: KernelSpec,
        task_size: Optional[int] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        rid=None,
    ) -> Generator:
        """Run one launch of ``session`` to completion (a sim process
        body); returns ``(ticket, submitted, finished)`` in sim time.

        A launch the policy rejects raises its typed error.  ``rid`` tags
        the ``request.launch`` trace event.
        """
        env = self.env
        t0 = env.now
        ticket = yield from session.launch(
            spec, task_size=task_size, priority=priority, deadline=deadline
        )
        if ticket.rejected:
            # Synchronous policy rejection: relay the typed error, so the
            # caller sees AdmissionRejected, not a silent no-op launch.
            raise ticket.done.value
        if not ticket.done.triggered:
            yield ticket.done
        # Same pruning synchronize() does, without charging a second pipe
        # round trip: completed tickets must not accumulate in a
        # long-lived session.
        session._pending = [t for t in session._pending if not t.done.processed]
        if obs_trace.ENABLED:
            obs_trace.complete(
                "request.launch", t0, env.now - t0, "serve", session.name,
                kernel=spec.name, rid=rid, shard=self.index,
            )
        return ticket, t0, env.now
