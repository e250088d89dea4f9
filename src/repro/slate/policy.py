"""Scheduling policies: the Table I heuristic and the pluggable framework.

Two layers live here:

* :class:`PolicyTable` — the paper's Table I corun/solo matrix (§III-B2),
  a pure lookup structure.
* :class:`SchedulingPolicy` — the *strategy* interface every scheduling
  choice of :class:`repro.slate.scheduler.SlateScheduler` flows through:
  queue ordering, admission, corun compatibility, SM partitioning,
  preemption victim selection, and post-completion learning.  The
  scheduler itself is pure mechanism (queueing, retreat/relaunch,
  accounting); swapping the policy swaps the scheduler's brain without
  touching the machinery.

The Table I policy table
------------------------

"At run time, Slate refers to a heuristic policy table to decide whether a
given pair of kernels should share a GPU.  This table is derived from
empirical results."  Rows index the currently-active kernel's class, columns
the candidate's; the verbatim paper table is::

            L_C    M_C    H_C    M_M    H_M
    L_C    corun  corun  solo   corun  corun
    M_C    corun  corun  solo   solo   corun
    H_C    solo   solo   solo   solo   corun
    M_M    corun  solo   corun  solo   solo
    H_M    corun  corun  solo   solo   solo

Note the table as published is not symmetric (e.g. H_C row x M_M column is
"solo" but M_M row x H_C column is "corun").  We reproduce it verbatim and
resolve a lookup with row = the *running* kernel, column = the *candidate*,
which is how the selection algorithm of §III-B1 consults it.  Callers that
need an *order-insensitive* answer (e.g. cluster placement, where neither
kernel is "the running one") must go through :meth:`PolicyTable.pair_key` /
:meth:`PolicyTable.mutual_corun`, which canonicalize the pair instead of
silently depending on argument order.

Shipped policies
----------------

========================  ====================================================
``table1`` (default)      The paper's Table I heuristic, byte-identical to
                          the seed scheduler (the differential harness in
                          ``tests/slate/test_policy_differential.py`` pins
                          this).
``mps-leftover``          MPS-style blind sharing: any newcomer may corun;
                          the resident keeps its bandwidth-saturation share
                          and the newcomer scavenges the leftover SMs.
``fair-share``            CFS-style fairness: tickets drain by per-tenant
                          virtual runtime (weighted by priority); corun
                          compatibility still follows Table I.
``edf``                   Earliest-deadline-first for real-time tenants:
                          deadline-ordered queue plus admission control that
                          rejects provably infeasible arrivals.
``online-predictive``     Starts from Table I, then re-estimates kernel
                          runtime online from completed executions and uses
                          the analytic rate model (``slate/predict.py``) to
                          re-decide pairings and re-split partitions
                          mid-flight.  With no completions observed it is
                          exactly ``table1``.
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.slate.classify import IntensityClass as C
from repro.slate.slicing import default_slice_blocks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from repro.slate.profiler import KernelProfile
    from repro.slate.scheduler import SlateScheduler, SlateTicket

__all__ = [
    "PolicyTable",
    "DEFAULT_POLICY",
    "Decision",
    "AdmissionRejected",
    "SchedulingPolicy",
    "Table1Policy",
    "MpsLeftoverPolicy",
    "FairSharePolicy",
    "EdfPolicy",
    "OnlinePredictivePolicy",
    "POLICIES",
    "make_policy",
    "policy_names",
]

Decision = str  # "corun" | "solo"

_PAPER_TABLE: dict[tuple[C, C], Decision] = {}


def _row(active: C, decisions: str) -> None:
    for candidate, decision in zip((C.L_C, C.M_C, C.H_C, C.M_M, C.H_M), decisions.split()):
        _PAPER_TABLE[(active, candidate)] = decision


_row(C.L_C, "corun corun solo  corun corun")
_row(C.M_C, "corun corun solo  solo  corun")
_row(C.H_C, "solo  solo  solo  solo  corun")
_row(C.M_M, "corun solo  corun solo  solo")
_row(C.H_M, "corun corun solo  solo  solo")


@dataclass(frozen=True)
class PolicyTable:
    """Lookup wrapper over a corun/solo matrix."""

    table: Mapping[tuple[C, C], Decision] = field(default_factory=lambda: dict(_PAPER_TABLE))

    def __post_init__(self) -> None:
        for key, decision in self.table.items():
            if decision not in ("corun", "solo"):
                raise ValueError(f"invalid decision {decision!r} for {key}")

    def should_corun(self, active: C, candidate: C) -> bool:
        """True if ``candidate`` may share the GPU with ``active``.

        Directional: row = running kernel, column = candidate (§III-B1).
        For an unordered pair — placement, feasibility pre-checks — use
        :meth:`mutual_corun`, which canonicalizes the key instead of
        depending on which operand happens to come first.
        """
        return self.table[(active, candidate)] == "corun"

    def decision(self, active: C, candidate: C) -> Decision:
        return self.table[(active, candidate)]

    @staticmethod
    def pair_key(a: C, b: C) -> tuple[C, C]:
        """Canonical (sorted) key for an unordered class pair.

        ``pair_key(a, b) == pair_key(b, a)`` for every pair, including
        identical-class pairs — the fix for lookups that used to be
        silently order-sensitive when callers had no "running" side.
        """
        return (a, b) if a.value <= b.value else (b, a)

    def mutual_corun(self, a: C, b: C) -> bool:
        """Order-insensitive sharing check: both directions must agree.

        The published table is asymmetric, so a one-way lookup on an
        unordered pair gives different answers depending on operand order.
        This resolves the pair canonically (via :meth:`pair_key`) and
        allows sharing only if *each* kernel tolerates the other as the
        running tenant.
        """
        x, y = self.pair_key(a, b)
        return self.should_corun(x, y) and self.should_corun(y, x)

    def corun_pairs(self) -> list[tuple[C, C]]:
        """All (active, candidate) pairs the policy allows to share."""
        return sorted(
            (k for k, v in self.table.items() if v == "corun"),
            key=lambda pair: (pair[0].value, pair[1].value),
        )


#: The paper's published policy.
DEFAULT_POLICY = PolicyTable()


class AdmissionRejected(RuntimeError):
    """A policy refused to admit a launch (e.g. an infeasible deadline).

    The rejected ticket's ``done`` event fails with this exception, so a
    waiting client sees the rejection instead of hanging forever.
    """

    def __init__(self, reason: str, ticket: "SlateTicket | None" = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.ticket = ticket


class SchedulingPolicy:
    """Strategy interface for every scheduling choice the daemon makes.

    The scheduler (mechanism) asks the bound policy:

    * :meth:`queue_key` — waiting-queue drain order (captured at push);
    * :meth:`admit` — accept or reject an arriving ticket;
    * :meth:`may_corun` — may the queue head share the device with the
      current residents?
    * :meth:`split_pair` / :meth:`nway_shares` — SM partition picks;
    * :meth:`preempt_victim` — who (if anyone) retreats for a VIP arrival;
    * :meth:`on_complete` / :meth:`reconsider` — learning hooks fired at
      every kernel completion (online policies re-estimate and re-split
      here).

    Determinism contract: a policy must be a pure function of the
    scheduler state it observes (queue, residents, profiles, sim time) and
    its own recorded observations — no wall clock, no global RNG — so
    identical workloads replay to identical decision traces.  The base
    implementations reproduce the seed scheduler's Table-I behaviour
    exactly; subclasses override only the choices they change.
    """

    #: Registry name (``--policy`` value); subclasses override.
    name = "table1"

    def __init__(self, table: PolicyTable = DEFAULT_POLICY) -> None:
        self.table = table
        self.scheduler: "SlateScheduler | None" = None

    # -- lifecycle ---------------------------------------------------------

    def bind(self, scheduler: "SlateScheduler") -> "SchedulingPolicy":
        """Attach to one scheduler.  A policy instance is stateful and
        belongs to exactly one scheduler; rebinding is an error (build one
        instance per device — pass the policy *name* to multi-device
        layers so each daemon constructs its own)."""
        if self.scheduler is not None and self.scheduler is not scheduler:
            raise RuntimeError(
                f"policy {self.name!r} is already bound to a scheduler; "
                "construct one instance per scheduler (pass the policy name "
                "instead of an instance to cluster/serve layers)"
            )
        self.scheduler = scheduler
        return self

    # -- helpers -----------------------------------------------------------

    def profile_of(self, ticket: "SlateTicket") -> "Optional[KernelProfile]":
        return self.scheduler.profiles.get(ticket.profile_key)

    # -- queue ordering ----------------------------------------------------

    def queue_key(self, ticket: "SlateTicket") -> tuple:
        """Waiting-queue sort key (smaller drains first).

        Default: highest priority first, FIFO within a priority level —
        the seed scheduler's ordering contract.
        """
        return (-ticket.priority, ticket.seq)

    # -- admission ---------------------------------------------------------

    def admit(self, ticket: "SlateTicket") -> Optional[str]:
        """Return a rejection reason to refuse ``ticket``, None to admit."""
        return None

    # -- corun compatibility ----------------------------------------------

    def may_corun(self, running: list, head: "SlateTicket") -> bool:
        """May ``head`` share the device with every running tenant?

        Called only when the device is non-idle and below ``max_corun``.
        Default: the paper's selection algorithm — an unprofiled kernel
        never coruns (it waits for a solo profiling run), and the newcomer
        must be Table-I compatible with *every* resident.
        """
        head_profile = self.profile_of(head)
        if head_profile is None:
            return False
        for entry in running:
            running_profile = self.profile_of(entry.ticket)
            if running_profile is None:
                return False
            if not self.table.should_corun(
                running_profile.intensity, head_profile.intensity
            ):
                return False
        return True

    # -- partitioning ------------------------------------------------------

    def split_pair(
        self,
        running,
        head: "SlateTicket",
        running_profile: "KernelProfile",
        head_profile: "KernelProfile",
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """SM sets (for the running kernel, for the newcomer).

        Default honours the scheduler's ``partition_strategy`` knob
        (heuristic saturation split, model-predictive search, or even).
        """
        sched = self.scheduler
        n = sched.device.num_sms
        if sched.partition_strategy == "even":
            half = n // 2
            return tuple(range(half)), tuple(range(half, n))
        if sched.partition_strategy == "predictive":
            split = self._predicted_split(running.ticket, head)
            return tuple(range(split.n_a)), tuple(range(split.n_a, n))
        from repro.slate.partition import choose_partition

        partition, primary, _secondary = choose_partition(
            running_profile, head_profile, sched.device
        )
        if primary is running_profile:
            return partition.primary_sms, partition.secondary_sms
        return partition.secondary_sms, partition.primary_sms

    def _predicted_split(self, running_ticket, head_ticket):
        """The predictive search's split for a running kernel and a newcomer.

        ``choose_partition_predictive`` is memoized by value, so the
        ``predictive`` strategy and ``online-predictive`` share one memo.
        """
        from repro.slate.predict import choose_partition_predictive

        sched = self.scheduler
        return choose_partition_predictive(
            running_ticket.spec,
            head_ticket.spec,
            sched.device,
            sched.costs,
            task_size=head_ticket.task_size,
        )

    def nway_shares(self, profiles: list) -> list[int]:
        """SM share per tenant for 3+-way co-residency: the most
        memory-intensive keeps its saturation share (capped), the rest
        split the remainder evenly."""
        device = self.scheduler.device
        n = device.num_sms
        k = len(profiles)
        primary_index = max(
            range(k), key=lambda i: (profiles[i].mem_bw, profiles[i].gflops)
        )
        needed = profiles[primary_index].saturation_sms(device)
        primary_share = max(3, min(n - 3 * (k - 1), needed))
        rest = n - primary_share
        shares = []
        others = k - 1
        for i in range(k):
            if i == primary_index:
                shares.append(primary_share)
            else:
                share = rest // others
                shares.append(share)
        # Distribute any remainder to the last non-primary tenant.
        deficit = n - sum(shares)
        for i in range(k - 1, -1, -1):
            if i != primary_index:
                shares[i] += deficit
                break
        else:
            shares[primary_index] += deficit
        return shares

    # -- preemption --------------------------------------------------------

    def preempt_victim(self, head: "SlateTicket", running: list):
        """The resident to retreat for ``head``, or None to leave all be.

        Called only with ``enable_preemption`` and a non-empty queue and
        device.  Default: the lowest-priority resident, and only if the
        arrival strictly outranks it.  (The scheduler still skips the
        preemption when a compatible corun can serve the arrival.)
        """
        victim = min(running, key=lambda r: r.ticket.priority)
        if head.priority <= victim.ticket.priority:
            return None
        return victim

    # -- slicing (Kernelet-style dispatch, repro/slate/slicing.py) ---------

    def slice_quota(self, ticket: "SlateTicket", work) -> Optional[int]:
        """Slice size (blocks) for ``ticket``'s launch, or None to take the
        scheduler's default sizing.

        Consulted only when the scheduler was built with ``slicing``
        enabled — with slicing off this hook is never called, which is what
        keeps ``table1`` decision traces byte-identical to the unsliced
        scheduler.  The base policy defers to the scheduler-wide
        ``slice_blocks`` setting (None: let the scheduler derive one).
        """
        return self.scheduler.slice_blocks

    def preempt_at_slice(self, head: "SlateTicket", victim) -> bool:
        """Whether preempting ``victim`` (sliced) may wait for a slice edge.

        Returning True (default) pauses the victim at its next slice
        boundary — no retreat drain, at most one slice of residual
        occupancy.  Returning False forces the classic retreat-style pause
        of the in-flight slice (instant freeze).
        """
        return True

    # -- learning hooks ----------------------------------------------------

    def on_complete(self, ticket: "SlateTicket", counters) -> None:
        """Observe a finished execution (online policies learn here)."""

    def reconsider(self) -> None:
        """Re-evaluate in-flight placements after a completion.

        Fired by the scheduler once per completion, after resume/drain
        scheduling.  Online policies may resize running tenants here via
        ``scheduler.resize_entry``; the default does nothing.
        """

    # -- placement (cluster / router layer) --------------------------------

    def placement_compatible(self, a: C, b: C) -> bool:
        """Order-insensitive class compatibility for cluster placement.

        The fleet-level analogue of :meth:`may_corun`: placement has no
        "running" side, so the default resolves the pair canonically via
        :meth:`PolicyTable.mutual_corun` instead of a one-way lookup.
        """
        return self.table.mutual_corun(a, b)

    def placement_score(
        self, residents, candidate: "Optional[C]", load: float = 0.0
    ) -> float:
        """Score placing ``candidate`` on a shard (lower is better).

        The policy surface the multi-shard serving router and the
        multi-device cluster rank shards with.  Default: the contention-
        penalized least-loaded score derived from
        :meth:`placement_compatible` (and therefore from the same Table-I
        machinery as :meth:`may_corun`) — one large penalty per resident
        the candidate must not share with, plus the load.  Policies that
        share blindly (``mps-leftover``) inherit pure least-loaded
        behaviour through their ``placement_compatible`` override.
        """
        from repro.slate.placement import contention_score

        return contention_score(self, residents, candidate, load)

    def describe(self) -> str:
        return type(self).__doc__.strip().splitlines()[0]


class Table1Policy(SchedulingPolicy):
    """The paper's Table I heuristic (the seed scheduler's behaviour)."""

    name = "table1"


class MpsLeftoverPolicy(SchedulingPolicy):
    """MPS-style blind sharing: corun whenever there is room.

    No class compatibility check — any profiled newcomer shares the device
    (the paper's MPS baseline, which co-runs everything).  Partitioning is
    "leftover": the resident keeps the SMs it needs to saturate its
    bandwidth and the newcomer scavenges the rest, mirroring how MPS
    tenants grab whatever SM time the incumbent leaves on the table.
    Profiling runs still happen solo (an unprofiled kernel waits for an
    idle device), since the saturation share needs a profile.
    """

    name = "mps-leftover"

    def may_corun(self, running: list, head: "SlateTicket") -> bool:
        if self.profile_of(head) is None:
            return False
        return all(self.profile_of(entry.ticket) is not None for entry in running)

    def split_pair(self, running, head, running_profile, head_profile):
        from repro.slate.partition import MIN_SHARE

        device = self.scheduler.device
        n = device.num_sms
        needed = running_profile.saturation_sms(device)
        split = max(MIN_SHARE, min(n - MIN_SHARE, needed))
        return tuple(range(split)), tuple(range(split, n))

    def placement_compatible(self, a: C, b: C) -> bool:
        return True


class FairSharePolicy(SchedulingPolicy):
    """CFS-style fair sharing: drain by per-tenant virtual runtime.

    Each tenant (profile key) accrues virtual runtime as its kernels
    complete, charged at ``elapsed / weight`` with ``weight = priority +
    1`` — higher-priority tenants accrue slower, so they are scheduled
    more often, but nobody starves: a tenant that has run the least is
    always next.  A tenant first seen mid-run starts at the current
    minimum virtual runtime (CFS's ``min_vruntime`` rule), so newcomers
    neither monopolize nor wait out the incumbents' full history.  Corun
    compatibility still follows Table I — fairness decides *who goes
    next*, the workload classes decide *who may share*.
    """

    name = "fair-share"

    def __init__(self, table: PolicyTable = DEFAULT_POLICY) -> None:
        super().__init__(table)
        self.vruntime: dict = {}

    def _vruntime_of(self, ticket: "SlateTicket") -> float:
        key = ticket.profile_key
        if key not in self.vruntime:
            floor = min(self.vruntime.values(), default=0.0)
            self.vruntime[key] = floor
        return self.vruntime[key]

    def queue_key(self, ticket: "SlateTicket") -> tuple:
        return (self._vruntime_of(ticket), ticket.seq)

    def on_complete(self, ticket: "SlateTicket", counters) -> None:
        weight = max(1, ticket.priority + 1)
        self.vruntime[ticket.profile_key] = (
            self._vruntime_of(ticket) + counters.elapsed / weight
        )


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first admission for real-time tenants.

    Tickets carrying a ``deadline`` (absolute sim time) drain
    earliest-deadline-first, ahead of best-effort tickets (no deadline),
    which keep FIFO order among themselves.  Admission control rejects a
    ticket whose deadline is *provably* infeasible: even starting
    immediately, solo, on the whole device — the fastest the mechanism
    could possibly serve it — its profiled solo runtime would overshoot
    the deadline.  Tickets without a profile cannot be proven infeasible
    and are admitted (their profiling run doubles as the estimate for next
    time).  Corun compatibility still follows Table I.
    """

    name = "edf"

    def queue_key(self, ticket: "SlateTicket") -> tuple:
        deadline = ticket.deadline
        if deadline is None:
            return (1, 0.0, ticket.seq)
        return (0, deadline, ticket.seq)

    def estimated_runtime(self, ticket: "SlateTicket") -> Optional[float]:
        """Best-case (solo, whole-device) runtime estimate, if provable."""
        profile = self.profile_of(ticket)
        return None if profile is None else profile.elapsed

    def admit(self, ticket: "SlateTicket") -> Optional[str]:
        if ticket.deadline is None:
            return None
        now = self.scheduler.env.now
        if ticket.deadline <= now:
            return f"deadline {ticket.deadline * 1e3:.3f} ms already passed"
        estimate = self.estimated_runtime(ticket)
        if estimate is not None and now + estimate > ticket.deadline:
            return (
                f"infeasible: solo runtime ~{estimate * 1e3:.3f} ms exceeds "
                f"slack {(ticket.deadline - now) * 1e3:.3f} ms"
            )
        return None

    def slice_quota(self, ticket: "SlateTicket", work) -> Optional[int]:
        """Deadline launches run whole; best-effort launches slice finer.

        A latency-critical (deadline) kernel should never be carved up for
        someone else's benefit — it gets the whole grid as one slice.  A
        best-effort kernel is sliced at *half* the default size so a
        deadline arrival finds a preemption edge twice as often (floored at
        one worker task per slice).
        """
        if ticket.deadline is not None:
            return work.num_blocks
        base = self.scheduler.slice_blocks
        if base is None:
            base = default_slice_blocks(work.num_blocks, ticket.task_size)
        return max(max(1, ticket.task_size), base // 2)


class OnlinePredictivePolicy(SchedulingPolicy):
    """Online-predictive scheduling: learn runtimes, re-decide pairings.

    Starts exactly as ``table1``.  Every completion feeds an exponential
    moving average of the kernel's observed runtime (the online
    re-estimation of "Preemptive Thread Block Scheduling with Online
    Structural Runtime Prediction"); once *both* sides of a candidate
    pairing have been observed at least once, the policy stops trusting
    the static table and instead predicts the pair's co-run rates with the
    analytic rate model (``slate/predict.py``), co-running only when the
    predicted system throughput clears ``stp_threshold``.  Partition picks
    for observed pairs use the predictive search, and after every
    completion the policy *reconsiders* the in-flight pairing: if the
    freshly-predicted best split disagrees with the current allocation by
    more than ``resplit_margin`` SMs, the residents are resized mid-run.

    With no completions observed the policy is decision-for-decision
    identical to ``table1`` (the differential harness pins this).
    """

    name = "online-predictive"

    def __init__(
        self,
        table: PolicyTable = DEFAULT_POLICY,
        ema_weight: float = 0.5,
        stp_threshold: float = 1.05,
        resplit_margin: int = 2,
    ) -> None:
        super().__init__(table)
        if not 0.0 < ema_weight <= 1.0:
            raise ValueError("ema_weight must be in (0, 1]")
        self.ema_weight = ema_weight
        self.stp_threshold = stp_threshold
        self.resplit_margin = resplit_margin
        #: profile key -> (EMA of observed elapsed, observation count).
        self.observed: dict = {}
        self.repairings = 0
        self.resplits = 0

    # -- online estimation -------------------------------------------------

    def on_complete(self, ticket: "SlateTicket", counters) -> None:
        key = ticket.profile_key
        ema, count = self.observed.get(key, (0.0, 0))
        w = self.ema_weight if count else 1.0
        self.observed[key] = ((1 - w) * ema + w * counters.elapsed, count + 1)

    def observations(self, ticket: "SlateTicket") -> int:
        return self.observed.get(ticket.profile_key, (0.0, 0))[1]

    #: Target wall-clock duration of one slice when sizing from evidence.
    slice_target = 250e-6

    def slice_quota(self, ticket: "SlateTicket", work) -> Optional[int]:
        """Size slices from the observed runtime EMA: aim for slices of
        ``slice_target`` seconds each (clamped to [1, 64] slices per grid),
        so fast kernels are not over-sliced and slow ones still expose
        frequent edges.  With no observations, or an explicit scheduler-wide
        ``slice_blocks``, fall back to the base behaviour."""
        base = self.scheduler.slice_blocks
        if base is not None:
            return base
        ema, count = self.observed.get(ticket.profile_key, (0.0, 0))
        if count == 0 or ema <= 0.0:
            return None
        slices = max(1, min(64, round(ema / self.slice_target)))
        quota = -(-work.num_blocks // slices)
        return max(max(1, ticket.task_size), quota)

    # -- decisions ---------------------------------------------------------

    def may_corun(self, running: list, head: "SlateTicket") -> bool:
        if self.profile_of(head) is None:
            return False
        if any(self.profile_of(entry.ticket) is None for entry in running):
            return False
        # Predictive path only for singly-occupied devices with evidence on
        # both sides; everything else falls back to the static table.
        if (
            len(running) == 1
            and self.observations(head) > 0
            and self.observations(running[0].ticket) > 0
        ):
            split = self._predicted_split(running[0].ticket, head)
            decided = split.predicted_stp >= self.stp_threshold
            if decided != self.table.should_corun(
                self.profile_of(running[0].ticket).intensity,
                self.profile_of(head).intensity,
            ):
                self.repairings += 1
            return decided
        return super().may_corun(running, head)

    def split_pair(self, running, head, running_profile, head_profile):
        if self.observations(running.ticket) > 0 and self.observations(head) > 0:
            split = self._predicted_split(running.ticket, head)
            n = self.scheduler.device.num_sms
            return tuple(range(split.n_a)), tuple(range(split.n_a, n))
        return super().split_pair(running, head, running_profile, head_profile)

    def reconsider(self) -> None:
        """Mid-flight re-split: realign a running pair with fresh evidence.

        The pair need not hold the whole device (it may be what is left of
        a wider co-run), so a re-split lays it out afresh: ``a`` gets
        ``split.n_a`` SMs and ``b`` the rest, one contiguous range each.
        """
        sched = self.scheduler
        running = sched.running_entries()
        if len(running) != 2:
            return
        a, b = running
        if self.observations(a.ticket) == 0 or self.observations(b.ticket) == 0:
            return
        split = self._predicted_split(a.ticket, b.ticket)
        n = sched.device.num_sms
        margin = self.resplit_margin
        if (
            abs(len(a.sms) - split.n_a) <= margin
            and abs(len(b.sms) - (n - split.n_a)) <= margin
        ):
            return
        self.resplits += 1
        # Each tenant keeps its side of the device, so at least one target
        # is clear of the other tenant's current range; resizing that one
        # first keeps the grants disjoint after every step.
        left, right = sorted((a, b), key=lambda entry: entry.sms[0])
        n_left = split.n_a if left is a else n - split.n_a
        moves = [(left, range(n_left)), (right, range(n_left, n))]
        if n_left > right.sms[0]:
            moves.reverse()
        for entry, sms in moves:
            sched.resize_entry(entry, sms)


#: Registry of shipped policies (``--policy`` values).
POLICIES: dict[str, type] = {
    Table1Policy.name: Table1Policy,
    MpsLeftoverPolicy.name: MpsLeftoverPolicy,
    FairSharePolicy.name: FairSharePolicy,
    EdfPolicy.name: EdfPolicy,
    OnlinePredictivePolicy.name: OnlinePredictivePolicy,
}


def policy_names() -> tuple[str, ...]:
    """Registered policy names, registration order (default first)."""
    return tuple(POLICIES)


def make_policy(spec=None) -> SchedulingPolicy:
    """Coerce ``spec`` into a fresh-or-given :class:`SchedulingPolicy`.

    Accepts: None (default ``table1``), a registered name, a bare
    :class:`PolicyTable` (wrapped in :class:`Table1Policy` — the
    backwards-compatible path for the ablations' custom tables), a policy
    class, or a ready instance (returned as-is).
    """
    if spec is None:
        return Table1Policy()
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str):
        try:
            return POLICIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scheduling policy {spec!r}; known: {', '.join(POLICIES)}"
            ) from None
    if isinstance(spec, PolicyTable):
        return Table1Policy(table=spec)
    if isinstance(spec, type) and issubclass(spec, SchedulingPolicy):
        return spec()
    raise TypeError(
        f"policy must be a name, PolicyTable, SchedulingPolicy or None; got {spec!r}"
    )
