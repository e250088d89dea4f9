"""The daemon-side workload-aware kernel scheduler (§III-B, §III-C, §IV-C).

The scheduler is pure *mechanism*: it owns the waiting queue, the
retreat/relaunch plumbing (shrink a running kernel, launch the newcomer on
the complementary SMs, grow survivors on completion), first-run profiling,
and all accounting.  Every *choice* — queue order, admission, corun vs
solo, the SM partition, the preemption victim — is delegated to a
:class:`repro.slate.policy.SchedulingPolicy` bound at construction.  The
default ``table1`` policy reproduces the paper's behaviour (§III-B1's
selection algorithm over the Table I matrix) decision-for-decision; see
``docs/policies.md`` for the alternatives and
``tests/slate/test_policy_differential.py`` for the proof obligation.

Kernels whose profile is not yet known run solo on the whole device (the
first-run profiling pass); their counters populate the profile table.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Hashable, Iterator, Optional

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.device import (
    ExecState,
    ExecutionMode,
    KernelCounters,
    KernelExecution,
    SimulatedGPU,
    SlicedExecution,
)
from repro.kernels.kernel import KernelSpec
from repro.obs import trace as obs_trace
from repro.obs.registry import registry as obs_registry
from repro.slate.policy import AdmissionRejected, SchedulingPolicy, make_policy
from repro.slate.profiler import KernelProfile, ProfileTable
from repro.slate.slicing import SliceConfigError, default_slice_blocks
from repro.sim import Environment, Event

__all__ = [
    "Decision",
    "SlateScheduler",
    "SlateTicket",
    "WaitingQueue",
    "DEFAULT_TASK_SIZE",
    "SLATE_INJECT_FRAC",
]

#: The paper's default task size ("We set the default task size as 10
#: blocks", §V-B).
DEFAULT_TASK_SIZE = 10

#: Injected-instruction overhead: "about 4 million or 3% more instructions"
#: for BlackScholes (§V-D1).
SLATE_INJECT_FRAC = 0.03


@dataclass
class SlateTicket:
    """One kernel launch request inside the daemon."""

    spec: KernelSpec
    profile_key: Hashable
    done: Event
    enqueued_at: float
    task_size: int = DEFAULT_TASK_SIZE
    #: Larger = more important.  Orders the waiting queue; with the
    #: scheduler's ``enable_preemption``, a strictly-higher-priority
    #: arrival that cannot corun preempts the running kernel (retreat,
    #: progress held in slateIdx, resumed on completion).
    priority: int = 0
    #: Absolute completion deadline (simulated seconds), or None for
    #: best-effort.  Only deadline-aware policies (``edf``) consult it;
    #: an infeasible deadline is rejected at submit (the ``done`` event
    #: fails with :class:`repro.slate.policy.AdmissionRejected`).
    deadline: Optional[float] = None
    started_at: Optional[float] = None
    #: Times this ticket's kernel was preempted by a higher priority one.
    preemptions: int = 0
    counters: Optional[KernelCounters] = None
    #: Whether this run executed without a profile (first-run profiling).
    profiling_run: bool = False
    seq: int = field(default_factory=itertools.count().__next__)

    @property
    def rejected(self) -> bool:
        """True if the policy refused this launch at admission."""
        return self.done.triggered and not self.done.ok


@dataclass(frozen=True)
class Decision:
    """One scheduling decision, with enough context to explain it."""

    time: float
    kind: str  # solo | corun | preempt | resume
    kernel: str
    #: Intensity classes involved: (newcomer, *tenants) where known.
    classes: tuple[str, ...] = ()
    #: SM count granted to the kernel the decision is about.
    sms: int = 0
    reason: str = ""

    def describe(self) -> str:
        klasses = " vs ".join(self.classes) if self.classes else "?"
        return (
            f"t={self.time * 1e3:9.3f} ms  {self.kind:7}  {self.kernel:8} "
            f"[{klasses}] -> {self.sms} SMs  ({self.reason})"
        )


@dataclass
class _Running:
    ticket: SlateTicket
    handle: KernelExecution
    sms: tuple[int, ...]


def _priority_fifo_key(ticket: SlateTicket) -> tuple:
    """Default drain order: highest priority first, FIFO within a level."""
    return (-ticket.priority, ticket.seq)


class WaitingQueue:
    """The scheduler's waiting queue: a key-ordered heap.

    The drain order is the bound policy's :meth:`SchedulingPolicy.queue_key`
    (default: ``(-priority, seq)`` — highest ``priority`` first, FIFO by
    submission ``seq`` within a priority level, identical to the list-sort
    it replaced).  The key must be a total order: policies include the
    unique ``seq`` as the final tie-break so tickets themselves are never
    compared.  A ticket's key is captured at :meth:`push` time — mutating
    the ticket (or the policy's internal state) while queued does not
    reorder the queue.

    Every consumer goes through :meth:`peek`/:meth:`pop`; there is no way
    to bypass the ordering invariant (the scheduler holds no raw list).
    Push and pop are O(log n), peek and len O(1) — on a million-launch
    trace the old sort-on-submit plus ``pop(0)`` was the daemon's dominant
    cost.
    """

    __slots__ = ("_heap", "_key")

    def __init__(self, key=None) -> None:
        self._heap: list[tuple[tuple, SlateTicket]] = []
        self._key = key if key is not None else _priority_fifo_key

    def push(self, ticket: SlateTicket) -> None:
        heappush(self._heap, (self._key(ticket), ticket))

    def peek(self) -> SlateTicket:
        """The next ticket to drain, without removing it."""
        return self._heap[0][1]

    def pop(self) -> SlateTicket:
        return heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[SlateTicket]:
        """Tickets in drain order (non-destructive; for tests/diagnostics)."""
        return (ticket for _key, ticket in sorted(self._heap))


class SlateScheduler:
    """Workload-aware scheduler bound to one simulated device."""

    def __init__(
        self,
        env: Environment,
        gpu: SimulatedGPU,
        device: DeviceConfig = TITAN_XP,
        costs: CostModel = CostModel(),
        policy: "SchedulingPolicy | str | None" = None,
        profiles: Optional[ProfileTable] = None,
        partition_strategy: str = "heuristic",
        enable_grow: bool = True,
        enable_preemption: bool = False,
        max_corun: int = 2,
        log_limit: Optional[int] = None,
        slicing: bool = False,
        slice_blocks: Optional[int] = None,
    ) -> None:
        if partition_strategy not in ("heuristic", "predictive", "even"):
            raise ValueError(f"unknown partition strategy {partition_strategy!r}")
        if max_corun < 1:
            raise ValueError("max_corun must be >= 1")
        if slice_blocks is not None and slice_blocks < 1:
            raise SliceConfigError(
                f"slice_blocks must be >= 1, got {slice_blocks}"
            )
        self.env = env
        self.gpu = gpu
        self.device = device
        self.costs = costs
        #: The decision-making strategy.  Accepts a registered name
        #: ("table1", "mps-leftover", ...), a ready SchedulingPolicy, a
        #: bare PolicyTable (wrapped — the ablations' path), or None for
        #: the paper default; see :func:`repro.slate.policy.make_policy`.
        self.policy: SchedulingPolicy = make_policy(policy).bind(self)
        self.partition_strategy = partition_strategy
        #: Dynamic-resizing grow on completion (disable for ablations).
        self.enable_grow = enable_grow
        #: Priority preemption (QoS extension; off = paper behaviour).
        self.enable_preemption = enable_preemption
        #: Tenants allowed to share the device simultaneously.  The paper
        #: evaluates pairs (2); higher values enable N-way co-residency
        #: when the policy approves the newcomer against EVERY tenant.
        self.max_corun = max_corun
        #: Kernelet-style slice-granularity dispatch (repro/slate/slicing.py).
        #: Off by default — the unsliced path is byte-identical to the seed
        #: scheduler, which the differential harness pins.
        self.slicing = slicing
        #: Scheduler-wide slice size (blocks); None lets the policy's
        #: ``slice_quota`` (or the grid-derived default) size each launch.
        self.slice_blocks = slice_blocks
        self._preempted: list[_Running] = []
        self.preemptions = 0
        self.profiles = profiles if profiles is not None else ProfileTable(device)
        self._queue = WaitingQueue(key=self.policy.queue_key)
        self._running: list[_Running] = []
        # Statistics for the evaluation.
        self.corun_launches = 0
        self.solo_launches = 0
        self.resizes = 0
        #: Launches refused by the policy at admission (e.g. EDF).
        self.rejections = 0
        #: Bound on the decision/allocation logs: ``None`` keeps full
        #: history (paper experiments), a positive N keeps the last N
        #: entries, and 0 disables logging entirely — million-launch
        #: traces would otherwise hold gigabytes of Decision records.
        self.log_limit = log_limit
        #: Total decisions ever made (survives log truncation).
        self.decisions_total = 0
        self.decision_log: "list[Decision] | deque[Decision]" = (
            [] if log_limit is None else deque(maxlen=log_limit)
        )
        #: (time, {kernel name: (sm_low, sm_high)}) after every allocation
        #: change — the input to the timeline renderer.
        self.allocation_log: "list | deque" = (
            [] if log_limit is None else deque(maxlen=log_limit)
        )
        # Process-wide mirrors of the per-instance counters, shared through
        # repro.obs.registry (the instance attributes remain the
        # per-scheduler view; the registry carries process totals).
        reg = obs_registry()
        self._m_decisions = reg.counter("scheduler.decisions")
        self._m_submits = reg.counter("scheduler.submits")
        self._m_solo = reg.counter("scheduler.solo_launches")
        self._m_corun = reg.counter("scheduler.corun_launches")
        self._m_resizes = reg.counter("scheduler.resizes")
        self._m_preemptions = reg.counter("scheduler.preemptions")
        self._m_rejections = reg.counter("scheduler.rejections")
        # Stamp the active policy into the metrics registry so process-wide
        # dumps show which brains produced the numbers.
        reg.counter(f"scheduler.policy.{self.policy.name}").inc()

    @property
    def decisions(self) -> list[tuple[float, str]]:
        """(time, kind) view of the decision log (backwards compatible)."""
        return [(d.time, d.kind) for d in self.decision_log]

    def _decide(self, kind, ticket, classes=(), sms=0, reason="") -> None:
        self.decisions_total += 1
        self._m_decisions.inc()
        if obs_trace.ENABLED:
            obs_trace.instant(
                "decide." + kind,
                self.env.now,
                "scheduler",
                "decisions",
                kernel=ticket.spec.name,
                classes=classes,
                sms=sms,
                reason=reason,
                policy=self.policy.name,
            )
        if self.log_limit == 0:
            return
        self.decision_log.append(
            Decision(
                time=self.env.now,
                kind=kind,
                kernel=ticket.spec.name,
                classes=tuple(classes),
                sms=sms,
                reason=reason,
            )
        )

    def explain(self, last: int = 20) -> str:
        """Human-readable tail of the decision log."""
        return "\n".join(d.describe() for d in list(self.decision_log)[-last:])

    def _log_allocation(self) -> None:
        # Allocation snapshots fire on every decision — micro-event rate,
        # so only a full-detail capture pays for them.
        tracing = obs_trace.DETAILED
        if self.log_limit == 0 and not tracing:
            return
        # SM sets are contiguous ascending ranges everywhere in this stack
        # (partitions, nway shares, all_sms), so the span is the end pair.
        snapshot = {
            r.ticket.spec.name: (r.sms[0], r.sms[-1]) for r in self._running
        }
        if tracing:
            obs_trace.allocation(self.env.now, snapshot)
        if self.log_limit != 0:
            self.allocation_log.append((self.env.now, snapshot))

    def _resize(self, entry: _Running, sms: tuple[int, ...]) -> bool:
        """Move a running tenant onto ``sms``; False if it is already there.

        The one resize step: it counts the resize on every surface
        (instance, registry, trace), then retargets the device handle.
        """
        if entry.sms == sms:
            return False
        entry.sms = sms
        self.resizes += 1
        self._m_resizes.inc()
        # Resize churn fires once per corun decision — micro-event rate,
        # so the always-on light path keeps only the counters above.
        if obs_trace.DETAILED:
            obs_trace.instant(
                "resize",
                self.env.now,
                "scheduler",
                "decisions",
                kernel=entry.ticket.spec.name,
                sms=len(sms),
            )
        self.gpu.resize(entry.handle, sms, notify=False)
        return True

    def _lay_out(
        self, tenants: list[_Running], shares: list[int]
    ) -> list[tuple[int, ...]]:
        """Move each tenant onto its share of contiguous SMs from SM 0.

        Returns every range in share order; an admission's newcomer gets
        the one past the tenants'.
        """
        ranges = []
        low = 0
        for share in shares:
            ranges.append(tuple(range(low, low + share)))
            low += share
        for entry, sms in zip(tenants, ranges):
            self._resize(entry, sms)
        return ranges

    # -- public API -------------------------------------------------------

    def submit(self, ticket: SlateTicket) -> None:
        """Accept (or reject) a launch request and re-evaluate the schedule."""
        reason = self.policy.admit(ticket)
        if reason is not None:
            self._reject(ticket, reason)
            return
        # Drain order is the policy's queue_key (default: highest priority
        # first, FIFO within a priority level).
        self._queue.push(ticket)
        self._m_submits.inc()
        # Queue-depth detail: the decide.* instant that follows carries
        # the admission outcome, so the light path skips this one.
        if obs_trace.DETAILED:
            obs_trace.instant(
                "submit",
                self.env.now,
                "scheduler",
                "queue",
                kernel=ticket.spec.name,
                priority=ticket.priority,
                depth=len(self._queue),
            )
        if self.enable_preemption:
            self._maybe_preempt()
        self._try_schedule()

    def _reject(self, ticket: SlateTicket, reason: str) -> None:
        """Refuse a launch: fail its done event with the policy's reason."""
        self.rejections += 1
        self._m_rejections.inc()
        self._decide("reject", ticket, sms=0, reason=reason)
        ticket.done.fail(AdmissionRejected(reason, ticket))
        # A fire-and-forget client may never observe the failure; pre-defuse
        # so the engine does not abort the whole simulation on its behalf
        # (processes that DO yield the event still receive the exception).
        ticket.done.defuse()

    # -- priority preemption (QoS extension) --------------------------------

    def _maybe_preempt(self) -> None:
        """Preempt a lower-priority kernel for an incompatible VIP arrival.

        Slate's retreat mechanism makes this cheap: the victim's workers
        drain their current tasks, progress stays in ``slateIdx``, and the
        kernel resumes on the freed device once the VIP completes.
        """
        if not self._queue or not self._running:
            return
        head = self._queue.peek()
        # Only device-side RUNNING tenants are preemptible.  A tenant whose
        # execution already entered its tail (or is mid-resize) this same
        # instant cannot retreat — ``gpu.pause`` would no-op, its pending
        # completion callback would still fire, and the entry would be in
        # ``_preempted`` when ``_on_kernel_done`` tries to remove it from
        # the running set (the same-instant preemption/completion race).
        candidates = [
            r for r in self._running if r.handle.state is ExecState.RUNNING
        ]
        if not candidates:
            return
        victim = self.policy.preempt_victim(head, candidates)
        if victim is None:
            return
        if self._can_schedule_more():
            return  # compatible corun serves the VIP without a preemption
        if isinstance(victim.handle, SlicedExecution):
            # Sliced victim: the policy chooses edge-granularity preemption
            # (no retreat drain, at most one slice of residual occupancy)
            # or the classic instant freeze of the slice in flight.
            self.gpu.pause(
                victim.handle,
                at_edge=self.policy.preempt_at_slice(head, victim),
            )
        else:
            self.gpu.pause(victim.handle)
        self._running.remove(victim)
        self._preempted.append(victim)
        victim.ticket.preemptions += 1
        self.preemptions += 1
        self._m_preemptions.inc()
        self._decide(
            "preempt",
            victim.ticket,
            classes=(str(head.priority), str(victim.ticket.priority)),
            sms=0,
            reason=f"priority {head.priority} arrival beats {victim.ticket.priority}",
        )
        self._log_allocation()

    def _resume_preempted(self) -> None:
        if not self._preempted or self._running:
            return
        entry = self._preempted.pop()
        # Resume on the whole device (its SMs may have been taken over).
        entry.sms = self.gpu.all_sms()
        self.gpu.resume(entry.handle)
        self._running.append(entry)
        self._decide(
            "resume", entry.ticket, sms=len(entry.sms), reason="VIP completed"
        )
        self._log_allocation()

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    @property
    def waiting(self) -> "WaitingQueue":
        """The waiting queue (read via peek/iteration; submit to add)."""
        return self._queue

    def running_sms(self) -> dict[str, tuple[int, ...]]:
        """Current kernel -> SM-set assignment (for tests/diagnostics)."""
        return {r.ticket.spec.name: r.sms for r in self._running}

    def running_entries(self) -> list:
        """Snapshot of the running set (for policies; do not mutate)."""
        return list(self._running)

    def resize_entry(self, entry, sms) -> None:
        """Resize a running tenant — the mechanism behind policy-driven
        mid-flight re-splits (e.g. ``online-predictive``'s reconsider)."""
        if entry in self._running and self._resize(entry, tuple(sms)):
            self._log_allocation()

    # -- scheduling core ----------------------------------------------------

    def _profile_of(self, ticket: SlateTicket) -> Optional[KernelProfile]:
        return self.profiles.get(ticket.profile_key)

    def _launch(self, ticket: SlateTicket, sms: tuple[int, ...]) -> None:
        ticket.started_at = self.env.now
        work = ticket.spec.work()
        if self.slicing:
            quota = self.policy.slice_quota(ticket, work)
            if quota is None:
                quota = default_slice_blocks(work.num_blocks, ticket.task_size)
            handle = self.gpu.launch_sliced(
                work,
                sm_ids=sms,
                mode=ExecutionMode.SLATE,
                task_size=ticket.task_size,
                inject_frac=SLATE_INJECT_FRAC,
                slice_blocks=quota,
            )
        else:
            handle = self.gpu.launch(
                work,
                sm_ids=sms,
                mode=ExecutionMode.SLATE,
                task_size=ticket.task_size,
                inject_frac=SLATE_INJECT_FRAC,
            )
        entry = _Running(ticket=ticket, handle=handle, sms=sms)
        self._running.append(entry)
        if obs_trace.ENABLED:
            # SM sets are contiguous ascending ranges everywhere in this
            # stack, so the span is the end pair — no min/max scan.
            obs_trace.instant(
                "launch",
                self.env.now,
                "tenants",
                ticket.spec.name,
                sms=len(sms),
                sm_low=sms[0],
                sm_high=sms[-1],
            )
        self._log_allocation()
        # Completion is handled by a plain event callback, not a spawned
        # process: a per-launch Process costs an object, a generator frame,
        # and an initialisation event — at trace scale that machinery is
        # pure overhead for a one-shot wait.
        handle.done.callbacks.append(
            lambda ev, entry=entry: self._on_kernel_done(entry, ev._value)
        )

    def _on_kernel_done(self, entry: _Running, counters) -> None:
        entry.ticket.counters = counters
        if entry.ticket.profile_key not in self.profiles:
            # The first-run profile is kept for good (§III-B1).
            self.profiles.record_run(entry.ticket.profile_key, counters)
        self.policy.on_complete(entry.ticket, counters)
        self._running.remove(entry)
        if obs_trace.ENABLED and entry.ticket.started_at is not None:
            # One complete ("X") span per execution: B/E pairs would nest
            # wrongly when identical kernels corun on the same track.
            obs_trace.complete(
                entry.ticket.spec.name,
                entry.ticket.started_at,
                self.env.now - entry.ticket.started_at,
                "tenants",
                entry.ticket.spec.name,
                sms=len(entry.sms),
                preemptions=entry.ticket.preemptions,
                profiling_run=entry.ticket.profiling_run,
            )
        self._log_allocation()
        entry.ticket.done.succeed(counters)
        self._on_completion()

    def _on_completion(self) -> None:
        if self.enable_preemption:
            self._resume_preempted()
        self._try_schedule()
        self.policy.reconsider()
        if not self.enable_grow:
            return
        # ``_try_schedule`` returns only once ``_can_schedule_more()`` is
        # False (or the queue is empty), and ``reconsider`` only resizes
        # tenants, which no ``may_corun`` reads: the gate is not asked
        # again here.
        running = self._running
        if len(running) == 1:
            # Grow the survivor onto the whole device (§III-C) — after a
            # short grace so a partner's imminent next launch (the looped
            # workloads' steady state) does not trigger grow-then-shrink
            # retreat churn.
            survivor = running[0]
            sms = survivor.sms
            if sms != self.gpu.all_sms():
                self.env.call_later(
                    self.costs.grow_grace, self._grow_after_grace, survivor, sms
                )
        elif len(running) >= 2:
            # N-way: surviving tenants claim the freed SMs.
            covered = sum(len(r.sms) for r in running)
            if covered < self.device.num_sms:
                self.env.call_later(
                    self.costs.grow_grace, self._rebalance_after_grace, len(running)
                )

    # The grace waits are ``call_later`` timers (completion is a ``done``
    # callback, see _launch).
    # The grow wait captures the survivor's SMs when it is armed; a spawned
    # waiter read them one queue hop later, at the same instant.  Nothing
    # resizes a lone survivor within that hop: _on_completion runs from a
    # ``done`` event, so every timer with a positive delay that is due at
    # this instant has fired.  A resize needs a submit (which follows a
    # ``schedule_decision_time`` timer), a grace timer (``grow_grace``),
    # both positive in every shipped cost model, or another completion,
    # whose kernel would still be in ``_running`` (no lone survivor).

    def _grow_after_grace(
        self, survivor: _Running, sms_at_schedule: tuple[int, ...]
    ) -> None:
        still_running = len(self._running) == 1 and self._running[0] is survivor
        if not still_running or self._queue or survivor.sms != sms_at_schedule:
            return
        self._resize(survivor, self.gpu.all_sms())
        self._log_allocation()

    def _rebalance_after_grace(self, survivor_count: int) -> None:
        if len(self._running) != survivor_count or self._queue:
            return
        covered = sum(len(r.sms) for r in self._running)
        if covered < self.device.num_sms:
            self._rebalance_survivors()

    def _can_schedule_more(self) -> bool:
        """Mechanism-side gate; the compatibility choice is the policy's."""
        if not self._queue:
            return False
        if not self._running:
            return True
        if len(self._running) >= self.max_corun:
            return False
        return self.policy.may_corun(self._running, self._queue.peek())

    def _admit_nway(self, head: SlateTicket) -> None:
        """Admit ``head`` as the (k+1)-th tenant: re-split and resize."""
        tenants = list(self._running)
        profiles = [self._profile_of(t.ticket) for t in tenants]
        profiles.append(self._profile_of(head))
        assignments = self._lay_out(tenants, self.policy.nway_shares(profiles))
        self.corun_launches += 1
        self._m_corun.inc()
        self._decide(
            "corun",
            head,
            classes=tuple(p.intensity.value for p in profiles),
            sms=len(assignments[-1]),
            reason=f"{len(tenants) + 1}-way complementary set",
        )
        self._launch(head, assignments[-1])
        self._log_allocation()

    def _rebalance_survivors(self) -> None:
        """After a completion with >= 2 survivors, claim the freed SMs."""
        tenants = list(self._running)
        profiles = [self._profile_of(t.ticket) for t in tenants]
        if any(p is None for p in profiles):
            return
        self._lay_out(tenants, self.policy.nway_shares(profiles))
        self._log_allocation()

    def _try_schedule(self) -> None:
        while self._queue:
            if not self._running:
                # Idle device: run on all SMs (solo, §III-B1 case b) — also
                # the first-run profiling path when no profile exists.
                head = self._queue.pop()
                head.profiling_run = head.profile_key not in self.profiles
                self.solo_launches += 1
                self._m_solo.inc()
                profile = self._profile_of(head)
                self._decide(
                    "solo",
                    head,
                    classes=(profile.intensity.value,) if profile else (),
                    sms=self.device.num_sms,
                    reason="first-run profiling" if head.profiling_run else "device idle",
                )
                self._launch(head, self.gpu.all_sms())
                continue
            if not self._can_schedule_more():
                return
            # Corun: partition the device between the running kernel(s) and
            # the newcomer (§III-B1 case a).
            head = self._queue.pop()
            if len(self._running) > 1:
                self._admit_nway(head)
                continue
            running = self._running[0]
            head_profile = self._profile_of(head)
            running_profile = self._profile_of(running.ticket)
            run_sms, new_sms = self.policy.split_pair(
                running, head, running_profile, head_profile
            )
            if running.sms == new_sms and len(new_sms) == len(run_sms):
                # Equal-sized sides and the running kernel already occupies
                # the other one (e.g. identical-kernel pairs): swap roles
                # instead of migrating it for nothing.
                run_sms, new_sms = new_sms, run_sms
            if self._resize(running, run_sms):
                self._log_allocation()
            self.corun_launches += 1
            self._m_corun.inc()
            self._decide(
                "corun",
                head,
                classes=(
                    head_profile.intensity.value,
                    running_profile.intensity.value,
                ),
                sms=len(new_sms),
                reason=(
                    f"Table I corun with {running.ticket.spec.name} "
                    f"({len(run_sms)}/{len(new_sms)} split)"
                ),
            )
            self._launch(head, new_sms)
