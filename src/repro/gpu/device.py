"""The simulated GPU device: an epoch-fluid kernel executor.

Execution model
---------------
Kernels execute blocks.  Between *epochs* — any change to the set of running
kernels, their SM allocations, or bandwidth shares — each kernel progresses
at a constant block-completion rate derived from a roofline service time:

``block_time = max(compute, issue, latency_floor) + overhead`` then capped by
the kernel's water-filled share of DRAM bandwidth, where

* ``compute`` — per-block FLOPs over the block's share of its SM's ALUs,
* ``issue`` — per-block L2-level bytes over the block's share of the SM's
  memory issue limit (:attr:`DeviceConfig.sm_bw_limit`),
* ``latency_floor`` — a per-kernel minimum modelling latency-bound kernels
  that cannot cover DRAM latency (QuasirandomGenerator's profile),
* ``overhead`` — per-block hardware dispatch cost under hardware scheduling,
  or the amortized task-pull cost (``atomic_latency / task_size``) under
  Slate's persistent-worker scheduling.

DRAM traffic per block is the kernel's L2 traffic filtered by the
order-sensitive locality model (:mod:`repro.gpu.cache`) and divided by the
kernel's DRAM access efficiency (coalescing quality).  Demands are
water-filled max-min fairly in :mod:`repro.gpu.rates` (via
:func:`repro.gpu.memory.waterfill`).

Completion adds a *tail* term (:class:`repro.gpu.rates.RaggedTail`)
modelling the ragged final wave: partial last wave plus an extreme-value
straggler estimate from the per-block time variance.  Under Slate,
grouping ``task_size`` blocks per queue pull scales the straggler term by
``sqrt(task_size)`` — the load-imbalance effect that costs BlackScholes
~5% at the default task size (paper §V-B, Fig. 5).

Host hot path
-------------
Everything the device derives from an execution's *allocation* — its
work, SM count, scheduling mode, task size, inject fraction and order
factor — is computed once per distinct allocation into an
:class:`_Allocation` record: the rate model's input from
:func:`repro.gpu.rates.rate_input` (occupancy and parallelism included)
and its interned rate-memo signature id, the settle constants
(``1.0 + inject_frac``, the ldst factor) and the ragged tail.  An execution
points at its record and gets a new one only where its work or SM count
changes: at construction, at a slice whose sub-grid or SM set differs
from the last, and when a resize is adopted.  So an epoch only settles
progress, probes the rate memo with one tuple of small ints (the
device's config id and the records' signature ids), re-arms completion
timers and appends one ``(now, active, rates)`` record to the rate log,
whose ``{kernel: rate}`` dicts :attr:`SimulatedGPU.rate_trace` builds
only when read.  The device's timers (completion, tail, dispatch gap,
resize wake) are :meth:`~repro.sim.Environment.call_later` calls: no
``Timeout``, lambda or callbacks list, and queued where those timeouts
were.  A sliced launch computes its tiling once
(:func:`repro.slate.slicing.slice_plan`) and indexes it per slice, and
runs every slice on one execution: a slice's finish calls the slice-edge
logic directly, with no event of the execution's own.  The edge re-arms
that execution in place for the next slice, or, after the final slice,
succeeds the launch's ``done``; the final slice's tail entry fires the
launch's ``tail_started``.  A ``tail_started`` that nothing waits on is
marked processed at tail entry, with no queue trip.  A finish settles
but flushes no epoch: the execution left the active set at its tail
entry, whose epoch already re-derived the survivors' rates.
``all_sms()`` returns one tuple built at construction.  The settle and
tail expressions keep their original operand order;
``tests/slate/goldens/sliced_nway4_counters.json`` pins every counter
they produce, bit for bit.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque as _deque
from dataclasses import dataclass, replace as _dc_replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.cache import ORDER_FACTORS, LocalityModel
from repro.gpu.occupancy import BlockResources
from repro.gpu.rates import (
    RaggedTail,
    RateOutput,
    SchedulingMode,
    derive_rates,
    memo_config,
    rate_input,
    rate_input_signature,
    rate_memo,
    signature_id,
)
from repro.obs import trace as obs_trace
from repro.obs.registry import registry as obs_registry
from repro.sim import Environment, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.slate.slicing import KernelSlice

__all__ = [
    "ExecState",
    "ExecutionMode",
    "KernelWork",
    "KernelCounters",
    "KernelExecution",
    "SlicedExecution",
    "SimulatedGPU",
]

_EPS = 1e-12


class ExecutionMode(str, enum.Enum):
    """How blocks are scheduled onto SMs."""

    #: Gigathread engine: blocks dispatched breadth-first across SMs, one
    #: hardware setup per block, scattered execution order.
    HARDWARE = "hardware"
    #: Slate persistent workers: blocks pulled in order from a task queue,
    #: ``task_size`` blocks per atomic pull, workers bound to an SM range.
    SLATE = "slate"


class ExecState(str, enum.Enum):
    RUNNING = "running"
    PAUSED = "paused"
    RESIZING = "resizing"
    TAIL = "tail"
    DONE = "done"


@dataclass(frozen=True)
class KernelWork:
    """Resource-demand description of one kernel launch.

    This is the interface between workload models (:mod:`repro.kernels`) and
    the device: everything the simulator needs to execute a kernel.
    """

    name: str
    num_blocks: int
    block: BlockResources
    #: FP32 operations per block.
    flops_per_block: float
    #: L2-level memory traffic per block (bytes, loads + stores).
    bytes_per_block: float
    locality: LocalityModel = LocalityModel()
    #: Achieved fraction of peak DRAM bandwidth for this kernel's access
    #: pattern (coalescing quality); DRAM demand is inflated by 1/efficiency.
    dram_efficiency: float = 1.0
    #: Latency floor per block (s) for latency-bound kernels.
    min_block_time: float = 0.0
    #: Coefficient of variation of per-block service time.
    time_cv: float = 0.05
    #: Executed instructions per block (for IPC counters).
    instr_per_block: float = 0.0
    #: Load/store instructions per block.
    ldst_per_block: float = 0.0

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.flops_per_block < 0 or self.bytes_per_block < 0:
            raise ValueError("per-block flops/bytes must be non-negative")
        if not 0 < self.dram_efficiency <= 1.0:
            raise ValueError(f"dram_efficiency must be in (0,1], got {self.dram_efficiency}")
        if self.min_block_time < 0 or self.time_cv < 0:
            raise ValueError("min_block_time and time_cv must be non-negative")


@dataclass(slots=True)
class KernelCounters:
    """nvprof-like counters accumulated over one kernel execution."""

    name: str = ""
    start_time: float = 0.0
    end_time: float = 0.0
    blocks_executed: float = 0.0
    flops: float = 0.0
    #: L2-level traffic (what nvprof's gld/gst throughput measures).
    bytes_l2: float = 0.0
    #: Traffic that actually reached DRAM after cache filtering.
    bytes_dram: float = 0.0
    instructions: float = 0.0
    ldst: float = 0.0
    #: Integral of the memory-throttle fraction over time (seconds).
    mem_throttle_time: float = 0.0
    busy_time: float = 0.0
    #: Number of resize (retreat + relaunch) operations applied.
    resizes: int = 0
    #: Total time (s) this execution made no progress because its workers
    #: were draining for a retreat-style resize.  Slice-boundary resizes
    #: (:class:`SlicedExecution`) contribute nothing here — that delta is
    #: what the ``retreat_vs_slice`` experiment measures.
    resize_stall: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def l2_throughput(self) -> float:
        """Average L2-level bandwidth over the execution (bytes/s)."""
        return self.bytes_l2 / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def dram_throughput(self) -> float:
        return self.bytes_dram / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def gflops(self) -> float:
        return self.flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0

    @property
    def mem_throttle_fraction(self) -> float:
        """Fraction of busy time spent memory-throttled (Table III metric)."""
        return self.mem_throttle_time / self.busy_time if self.busy_time > 0 else 0.0


#: Rates of an execution no epoch has derived yet: no progress.
_NO_RATES = RateOutput(
    block_time=0.0, rate=0.0, throttle=0.0, dram_bytes_per_block=0.0, demand=0.0
)


class _Allocation:
    """What the device derives from one allocation, computed once.

    Keyed in :attr:`SimulatedGPU._allocations` by ``(id(work), n_sms,
    slate, task_size, inject_frac, order_factor)``; holding ``work`` pins
    it, so its id cannot recycle while the record is reachable.
    """

    __slots__ = ("work", "inp", "sid", "settle", "tail")

    def __init__(
        self,
        gpu: "SimulatedGPU",
        work: KernelWork,
        n_sms: int,
        slate: bool,
        task_size: int,
        inject_frac: float,
        order_factor: float,
    ) -> None:
        self.work = work
        #: The rate model's input (keyless; a memo miss keys a copy).
        self.inp = inp = rate_input(
            work,
            n_sms,
            gpu.device,
            SchedulingMode.SLATE if slate else SchedulingMode.HARDWARE,
            task_size,
            inject_frac,
            order_factor,
        )
        #: Interned rate signature: this record's part of a memo key.
        self.sid = signature_id(rate_input_signature(inp))
        #: Operands of one progress settle, unpacked in one step.
        self.settle = (
            work.num_blocks,
            work.flops_per_block,
            work.bytes_per_block,
            work.instr_per_block,
            1.0 + inject_frac,
            work.ldst_per_block,
            1.0 - gpu.costs.slate_ldst_saving if slate else 1.0,
        )
        #: Drain time of the final ragged wave, per block time.  Its
        #: factors depend on parallelism, which changes only with the SM
        #: count; every SM-count change swaps the record and re-derives
        #: before a completion timer can fire, so they match the rates.
        self.tail = RaggedTail(work, inp)


class KernelExecution:
    """Handle for one in-flight kernel on the device."""

    __slots__ = (
        "id", "gpu", "work", "sm_ids", "mode", "order_factor", "task_size",
        "inject_frac", "state", "blocks_done", "done", "tail_started",
        "counters", "_rates", "_alloc", "_last_settle", "_timer_gen",
        "_timer_at", "_resize_target", "_edge",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        gpu: "SimulatedGPU",
        work: KernelWork,
        sm_ids: tuple[int, ...],
        mode: ExecutionMode,
        order_factor: float,
        task_size: int,
        inject_frac: float,
    ) -> None:
        env = gpu.env
        self.id = next(self._ids)
        self.gpu = gpu
        self.work = work
        self.mode = mode
        self.order_factor = order_factor
        self.task_size = task_size
        self.inject_frac = inject_frac
        self._bind(sm_ids)
        self.state = ExecState.RUNNING
        self.blocks_done = 0.0
        self.done: Event = Event(env)
        #: Fires when the kernel enters its drain tail (used by the MPS
        #: leftover policy to admit the next kernel into freed slots).
        self.tail_started: Event = Event(env)
        self.counters = KernelCounters(work.name, env.now)
        #: Rates from the last epoch that derived this execution: frozen
        #: memo values shared between executions, replaced wholesale.
        self._rates = _NO_RATES
        self._last_settle = env.now
        self._timer_gen = 0
        #: Absolute fire time of the live completion timer (None: no live
        #: timer).  Lets an epoch that re-derives the *same* rate keep the
        #: pending timer instead of cancel-and-reschedule churn.
        self._timer_at: Optional[float] = None
        self._resize_target: tuple[int, ...] = sm_ids
        #: The :class:`SlicedExecution` this execution runs the slices
        #: of, else None.  Its finish goes straight to the slice edge,
        #: with no ``done`` event.
        self._edge: Optional["SlicedExecution"] = None

    def _rearm(self, work: KernelWork, sm_ids: tuple[int, ...]) -> None:
        """Run the next slice of a sliced launch: ``work`` on ``sm_ids``.

        Progress, counters and rates start afresh.  ``_timer_gen`` keeps
        counting, so a completion timer still queued from an earlier slice
        stays stale.
        """
        now = self.gpu.env.now
        self.work = work
        self._bind(sm_ids)
        self.state = ExecState.RUNNING
        self.blocks_done = 0.0
        self.counters = KernelCounters(work.name, now)
        self._rates = _NO_RATES
        self._last_settle = now
        self._timer_at = None
        self._resize_target = sm_ids

    def _bind(self, sm_ids: tuple[int, ...]) -> None:
        """Run on ``sm_ids``; the one place the allocation record changes."""
        self.sm_ids = sm_ids
        self._alloc = self.gpu._allocation(
            self.work,
            len(sm_ids),
            self.mode is ExecutionMode.SLATE,
            self.task_size,
            self.inject_frac,
            self.order_factor,
        )

    # -- convenience -----------------------------------------------------

    @property
    def num_sms(self) -> int:
        return len(self.sm_ids)

    @property
    def blocks_per_sm(self) -> int:
        return self._alloc.inp.blocks_per_sm

    @property
    def resident(self) -> int:
        """Concurrently resident blocks (Slate: persistent worker count)."""
        return self._alloc.inp.blocks_per_sm * self.num_sms

    @property
    def parallelism(self) -> int:
        """Concurrently *executing* blocks: workers each run one block."""
        return self._alloc.inp.parallelism

    @property
    def blocks_remaining(self) -> float:
        return max(0.0, self.work.num_blocks - self.blocks_done)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<KernelExecution #{self.id} {self.work.name} {self.mode.value} "
            f"sms={self.num_sms} state={self.state.value}>"
        )


class SlicedExecution:
    """Handle for a Kernelet-style sliced launch (``launch_sliced``).

    The grid's tiling (:func:`repro.slate.slicing.slice_plan`) is
    computed once, at launch, and dispatched slice by slice; each slice
    runs on one :class:`KernelExecution`, built for the first slice and
    re-armed for each later one, and consecutive slices are separated by one
    ``costs.slice_dispatch_overhead`` gap.  Between slices the handle is at
    a *slice edge*: a resize or preemption requested mid-slice is recorded
    and takes effect at the next edge with no retreat drain — the whole
    point of slicing.  On the final slice no edge remains, so resize/pause
    fall back to the classic retreat mechanics, which also makes a
    single-slice launch (slice size >= grid) behave exactly like an
    unsliced one.

    Duck-types the parts of :class:`KernelExecution` the scheduler uses:
    ``work``/``sm_ids``/``state``/``done``/``tail_started``/``counters``/
    ``mode``/``task_size``.  ``counters`` aggregates over all slices.
    Every slice ends at the slice edge (``SimulatedGPU._on_slice_done``):
    after the last slice drains, the edge succeeds ``done`` with the
    aggregate counters, queued where an unsliced launch queues its own
    ``done``; ``tail_started`` fires when the final slice enters its tail.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        gpu: "SimulatedGPU",
        work: KernelWork,
        sm_ids: tuple[int, ...],
        mode: ExecutionMode,
        order_factor: float,
        task_size: int,
        inject_frac: float,
        plan: Sequence[KernelSlice],
    ) -> None:
        self.id = next(self._ids)
        self.gpu = gpu
        self.work = work
        self.mode = mode
        self.order_factor = order_factor
        self.task_size = task_size
        self.inject_frac = inject_frac
        #: The launch's tiling; slice ``i`` is dispatched as ``plan[i]``.
        self.plan = plan
        self.num_slices = len(plan)
        self.done: Event = gpu.env.event()
        self.tail_started: Event = gpu.env.event()
        self.counters = KernelCounters(name=work.name, start_time=gpu.env.now)
        #: The slice currently in flight (None at an edge / when paused).
        self.current: Optional[KernelExecution] = None
        #: The one execution every slice runs on (None before the first).
        self._exec: Optional[KernelExecution] = None
        #: Slices dispatched so far, which is also the next slice's index.
        self.slices_dispatched = 0
        self.completed_blocks = 0
        #: Where the *next* slice launches.
        self._sm_ids = sm_ids
        #: Allocation to adopt at the next slice edge (None: keep).
        self._pending_sms: Optional[tuple[int, ...]] = None
        self._pending_pause = False
        self._paused = False
        self._finished = False
        #: Generation guard for the inter-slice dispatch-gap timer.
        self._gap_gen = 0

    # -- convenience -----------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """Every slice is dispatched: the one in flight, if any, is final."""
        return self.slices_dispatched == self.num_slices

    @property
    def sm_ids(self) -> tuple[int, ...]:
        cur = self.current
        return cur.sm_ids if cur is not None else self._sm_ids

    @property
    def num_sms(self) -> int:
        return len(self.sm_ids)

    @property
    def state(self) -> ExecState:
        if self._finished:
            return ExecState.DONE
        if self._paused:
            return ExecState.PAUSED
        cur = self.current
        if cur is not None and self.exhausted:
            # Final slice: no edge remains, so the underlying retreat-model
            # state (RESIZING/TAIL/...) is the truth — exactly the unsliced
            # semantics the single-slice identity tests pin.
            return cur.state
        return ExecState.RUNNING

    @property
    def blocks_done(self) -> float:
        cur = self.current
        return self.completed_blocks + (cur.blocks_done if cur is not None else 0.0)

    @property
    def blocks_remaining(self) -> float:
        return max(0.0, self.work.num_blocks - self.blocks_done)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SlicedExecution #{self.id} {self.work.name} "
            f"slice {self.slices_dispatched}/{self.num_slices} "
            f"sms={self.num_sms} state={self.state.value}>"
        )


class SimulatedGPU:
    """The device: owns the SM pool, bandwidth arbitration, and executions.

    Runtimes (CUDA / MPS / Slate) decide *which* SMs a kernel gets and
    *when*; the device turns those decisions into timing and counters.
    """

    #: Decision-epoch batching: mutations that land while the engine is
    #: delivering events mark the epoch dirty and defer the (settle +
    #: derive + reschedule) recompute to one end-of-timestep flush.
    #: ``False`` restores recompute-per-mutation, the reference path the
    #: epoch-equivalence tests compare against; read at construction.
    EPOCH_BATCH = True

    def __init__(
        self,
        env: Environment,
        device: DeviceConfig = TITAN_XP,
        costs: CostModel = CostModel(),
        rate_trace_limit: Optional[int] = None,
    ) -> None:
        self.env = env
        self.device = device
        self.costs = costs
        self._all_sms = tuple(range(device.num_sms))
        self._running: dict[int, KernelExecution] = {}
        #: Bound on the rate trace: ``None`` keeps every epoch sample, a
        #: positive N keeps the last N, 0 disables sampling — long traces
        #: cross millions of epoch boundaries.
        self.rate_trace_limit = rate_trace_limit
        #: One ``(time, active executions, their RateOutputs)`` record per
        #: epoch (None: sampling off); :attr:`rate_trace` renders it.  Both
        #: lists are shared, never copied: the derivation's own ``active``
        #: list and the memo's rates.
        self._rate_log: "list | _deque | None" = (
            None
            if rate_trace_limit == 0
            else [] if rate_trace_limit is None else _deque(maxlen=rate_trace_limit)
        )
        self._epoch_batch = self.EPOCH_BATCH
        self._epoch_dirty = False
        #: First element of every rate-memo key this device builds
        #: (``device`` and ``costs`` are fixed for the device's lifetime).
        self._memo_config = memo_config(device, costs)
        #: The process-wide rate memo, probed inline by :meth:`_recompute`.
        self._memo = rate_memo()
        #: One :class:`_Allocation` per (work identity, allocation shape).
        #: Repeated launches of one spec share a ``KernelWork`` (see
        #: ``KernelSpec.work``; ``by_name`` shares one spec per name), so a
        #: record is built once per work and shape, not once per execution.
        #: Records pin their works; a caller that builds fresh works (such
        #: as ``KernelSpec.scaled`` per launch) builds one per launch, so
        #: the map is dropped whole past 256 records.
        self._allocations: dict[tuple, _Allocation] = {}
        #: Timestamp of the last full progress settle; a second settle at
        #: the same instant is a no-op (dt == 0 for every kernel) and skips.
        self._settled_at = -1.0
        #: Sub-grid works for sliced dispatch, keyed ``(id(base), count)``
        #: and pinned (``_slice_pins``) so base ids cannot recycle — slices
        #: of repeated launches reuse one KernelWork per distinct count,
        #: keeping their allocation records warm under trace-scale slicing.
        self._slice_works: dict[tuple[int, int], KernelWork] = {}
        self._slice_pins: dict[int, KernelWork] = {}
        reg = obs_registry()
        self._m_slice_dispatch = reg.counter("slice.dispatches")
        self._m_slice_preempt = reg.counter("slice.preempts")
        self._m_slice_resize = reg.counter("slice.resizes")
        self._m_taskqueue_pulls = reg.counter("taskqueue.pulls")

    # -- public API -------------------------------------------------------

    def all_sms(self) -> tuple[int, ...]:
        return self._all_sms

    def sm_range(self, low: int, high: int) -> tuple[int, ...]:
        """SMs in the inclusive range [low, high] (Slate's sm_low/sm_high)."""
        if not 0 <= low <= high < self.device.num_sms:
            raise ValueError(f"invalid SM range [{low}, {high}]")
        return tuple(range(low, high + 1))

    def _checked_sms(self, sm_ids: Optional[Sequence[int]]) -> tuple[int, ...]:
        if sm_ids is None:
            return self.all_sms()
        sms = tuple(sm_ids)
        if not sms:
            raise ValueError("kernel must be given at least one SM")
        if min(sms) < 0 or max(sms) >= self.device.num_sms:
            raise ValueError(f"SM ids out of range: {sms}")
        return sms

    def launch(
        self,
        work: KernelWork,
        sm_ids: Optional[Sequence[int]] = None,
        mode: ExecutionMode = ExecutionMode.HARDWARE,
        order_factor: Optional[float] = None,
        task_size: int = 1,
        inject_frac: float = 0.0,
    ) -> KernelExecution:
        """Begin executing ``work`` on ``sm_ids`` (default: all SMs).

        Returns a handle whose ``done`` event fires with the execution's
        :class:`KernelCounters` when the last block drains.
        """
        if task_size < 1:
            raise ValueError(f"task_size must be >= 1, got {task_size}")
        sms = self._checked_sms(sm_ids)
        if order_factor is None:
            order_factor = ORDER_FACTORS[
                "slate" if mode is ExecutionMode.SLATE else "hardware"
            ]
        execution = KernelExecution(
            self, work, sms, mode, order_factor, task_size, inject_frac
        )
        self._running[execution.id] = execution
        self._epoch_recompute()
        return execution

    # -- sliced dispatch (Kernelet-style, repro/slate/slicing.py) ----------

    def launch_sliced(
        self,
        work: KernelWork,
        sm_ids: Optional[Sequence[int]] = None,
        mode: ExecutionMode = ExecutionMode.SLATE,
        order_factor: Optional[float] = None,
        task_size: int = 1,
        inject_frac: float = 0.0,
        slice_blocks: Optional[int] = None,
    ) -> SlicedExecution:
        """Begin executing ``work`` slice by slice (Kernelet-style).

        The grid is partitioned into sub-grid slices (``slice_blocks``
        consecutive blocks each, default
        :func:`repro.slate.slicing.default_slice_blocks`) dispatched back to
        back with a ``costs.slice_dispatch_overhead`` gap between them.
        The tiling is computed once, here, by
        :func:`repro.slate.slicing.slice_plan`.  Returns a
        :class:`SlicedExecution` whose ``done`` event fires with the
        aggregated :class:`KernelCounters` when the last slice drains.
        Slicing rides on the persistent-worker task queue, so only Slate
        scheduling can be sliced.
        """
        from repro.slate.slicing import default_slice_blocks, slice_plan

        if mode is not ExecutionMode.SLATE:
            raise ValueError("sliced dispatch requires Slate scheduling mode")
        if task_size < 1:
            raise ValueError(f"task_size must be >= 1, got {task_size}")
        sms = self._checked_sms(sm_ids)
        if order_factor is None:
            order_factor = ORDER_FACTORS["slate"]
        if slice_blocks is None:
            slice_blocks = default_slice_blocks(work.num_blocks, task_size)
        plan = slice_plan(work.num_blocks, slice_blocks)
        wrapper = SlicedExecution(
            self, work, sms, mode, order_factor, task_size, inject_frac, plan
        )
        self._dispatch_slice(wrapper)
        return wrapper

    def _slice_work(self, base: KernelWork, count: int) -> KernelWork:
        key = (id(base), count)
        sub = self._slice_works.get(key)
        if sub is None:
            if len(self._slice_works) >= 512:
                self._slice_works.clear()
                self._slice_pins.clear()
            self._slice_pins[id(base)] = base
            sub = _dc_replace(base, num_blocks=count)
            self._slice_works[key] = sub
        return sub

    def _dispatch_slice(self, wrapper: SlicedExecution) -> None:
        """Launch the next slice of ``wrapper`` (caller checked one remains)."""
        if wrapper._pending_sms is not None:
            # A mid-slice resize lands here, at the edge: no drain, no stall.
            wrapper._sm_ids = wrapper._pending_sms
            wrapper._pending_sms = None
            wrapper.counters.resizes += 1
            self._m_slice_resize.inc()
            if obs_trace.DETAILED:
                obs_trace.instant(
                    "slice.resize",
                    self.env.now,
                    "device",
                    wrapper.work.name,
                    to_sms=len(wrapper._sm_ids),
                )
        index = wrapper.slices_dispatched
        _, start, count = wrapper.plan[index]
        # Each slice is one pull of the slice-granular task queue: the
        # counter and the detailed instant say so.
        self._m_taskqueue_pulls.inc()
        if obs_trace.DETAILED:
            obs_trace.instant(
                "taskqueue.pull",
                self.env.now,
                "device",
                "taskqueue",
                start=start,
                count=count,
            )
        base = wrapper.work
        work = base if count == base.num_blocks else self._slice_work(base, count)
        execution = wrapper._exec
        if execution is None:
            execution = wrapper._exec = KernelExecution(
                self,
                work,
                wrapper._sm_ids,
                wrapper.mode,
                wrapper.order_factor,
                wrapper.task_size,
                wrapper.inject_frac,
            )
            execution._edge = wrapper
        else:
            execution._rearm(work, wrapper._sm_ids)
        wrapper.current = execution
        wrapper.slices_dispatched = index + 1
        self._running[execution.id] = execution
        self.env.stats.slice_dispatches += 1
        self._m_slice_dispatch.inc()
        if obs_trace.DETAILED:
            obs_trace.instant(
                "slice.dispatch",
                self.env.now,
                "device",
                wrapper.work.name,
                index=index,
                start=start,
                count=count,
                sms=len(wrapper._sm_ids),
            )
        if index + 1 == wrapper.num_slices:
            # Final slice: its tail entry fires the launch's own
            # ``tail_started`` (shared, not forwarded).
            execution.tail_started = wrapper.tail_started
        self._epoch_recompute()

    def _on_slice_done(self, wrapper: SlicedExecution) -> None:
        k = wrapper.current
        wrapper.current = None
        wrapper.completed_blocks += k.work.num_blocks
        counters = k.counters
        agg = wrapper.counters
        agg.blocks_executed += counters.blocks_executed
        agg.flops += counters.flops
        agg.bytes_l2 += counters.bytes_l2
        agg.bytes_dram += counters.bytes_dram
        agg.instructions += counters.instructions
        agg.ldst += counters.ldst
        agg.mem_throttle_time += counters.mem_throttle_time
        agg.busy_time += counters.busy_time
        agg.resizes += counters.resizes
        agg.resize_stall += counters.resize_stall
        agg.end_time = counters.end_time
        if wrapper.exhausted:
            wrapper._finished = True
            # Break the execution <-> launch cycle so both are freed by
            # reference counting, not by the cyclic collector.
            k._edge = None
            wrapper.done.succeed(agg)
            return
        if wrapper._pending_pause:
            self._pause_at_edge(wrapper)
            return
        # Inter-slice dispatch gap, then the next slice.
        wrapper._gap_gen += 1
        self.env.call_later(
            self.costs.slice_dispatch_overhead,
            self._after_slice_gap,
            wrapper,
            wrapper._gap_gen,
        )

    def _after_slice_gap(self, wrapper: SlicedExecution, gen: int) -> None:
        if gen != wrapper._gap_gen or wrapper._paused or wrapper._finished:
            return
        if wrapper._pending_pause:
            self._pause_at_edge(wrapper)
            return
        self._dispatch_slice(wrapper)

    def _pause_at_edge(self, wrapper: SlicedExecution) -> None:
        wrapper._pending_pause = False
        wrapper._paused = True
        wrapper._gap_gen += 1  # kill any in-flight dispatch-gap timer
        self.env.stats.slice_preempts += 1
        self._m_slice_preempt.inc()
        if obs_trace.DETAILED:
            obs_trace.instant(
                "slice.preempt",
                self.env.now,
                "device",
                wrapper.work.name,
                completed_blocks=wrapper.completed_blocks,
            )

    def _resize_sliced(
        self, wrapper: SlicedExecution, sms: tuple[int, ...], notify: bool
    ) -> Optional[Event]:
        if not sms:
            raise ValueError("resize must leave at least one SM")
        if wrapper._finished:
            resumed = self.env.event() if notify else None
            if resumed is not None:
                resumed.succeed()
            return resumed
        if wrapper.current is not None and wrapper.exhausted:
            # Final slice in flight: no edge remains — classic retreat.
            return self.resize(wrapper.current, sms, notify)
        # An edge remains (mid-slice, mid-gap, or paused): record the target;
        # the next dispatched slice adopts it with no drain stall.
        wrapper._pending_sms = sms
        resumed = self.env.event() if notify else None
        if resumed is not None:
            resumed.succeed()
        return resumed

    def resize(
        self,
        execution: KernelExecution,
        new_sm_ids: Sequence[int],
        notify: bool = True,
    ) -> Optional[Event]:
        """Dynamically rebind a Slate kernel to a new SM range.

        Models the paper's dispatch-kernel mechanism: a retreat signal stops
        the persistent workers after their current task, and the kernel is
        relaunched on the new range resuming from ``slateIdx`` (progress is
        carried over exactly).  Returns an event that fires when the kernel
        is running again (or immediately if it had already drained).

        ``notify=False`` skips creating that event and returns ``None`` —
        fire-and-forget callers (the scheduler resizes on every corun
        admission) would otherwise queue a dead notification per resize.

        A :class:`SlicedExecution` resizes at its next slice edge instead
        (no drain stall) unless it is already on its final slice, in which
        case the classic retreat mechanics below apply to that slice.
        """
        if isinstance(execution, SlicedExecution):
            return self._resize_sliced(execution, tuple(new_sm_ids), notify)
        if execution.mode is not ExecutionMode.SLATE:
            raise ValueError("only Slate-scheduled kernels can be resized")
        sms = tuple(new_sm_ids)
        if not sms:
            raise ValueError("resize must leave at least one SM")
        resumed = self.env.event() if notify else None
        if execution.state in (ExecState.TAIL, ExecState.DONE):
            if resumed is not None:
                resumed.succeed()
            return resumed
        if execution.state is ExecState.RESIZING:
            # Coalesce: just update the target range of the in-flight resize.
            execution._resize_target = sms
            if resumed is not None:
                resumed.succeed()
            return resumed

        self._settle_all()
        execution.state = ExecState.RESIZING
        execution._resize_target = sms
        execution.counters.resizes += 1
        # Paired with the scheduler's resize instants: per-corun-decision
        # churn that only full-detail captures record.
        if obs_trace.DETAILED:
            obs_trace.instant(
                "kernel.retreat",
                self.env.now,
                "device",
                execution.work.name,
                from_sms=len(execution.sm_ids),
                to_sms=len(sms),
            )
        self._epoch_recompute()

        delay = self.costs.retreat_latency + self.costs.kernel_launch_overhead
        execution.counters.resize_stall += delay
        self.env.call_later(delay, self._end_resize, execution, resumed)
        return resumed

    def _end_resize(
        self, execution: KernelExecution, resumed: Optional[Event]
    ) -> None:
        """Resize wake: relaunch on the latest target range."""
        if execution.state is not ExecState.RESIZING:
            return
        execution._bind(execution._resize_target)
        execution.state = ExecState.RUNNING
        execution._last_settle = self.env.now
        self._epoch_recompute()
        if resumed is not None:
            resumed.succeed()

    def pause(self, execution: KernelExecution, at_edge: bool = True) -> None:
        """Suspend a kernel (context switch); progress is frozen.

        A :class:`SlicedExecution` with a slice edge ahead is preempted *at
        that edge*: the slice in flight runs to its boundary, then no
        further slice is dispatched.  ``at_edge=False`` forces the classic
        instant freeze of the slice in flight instead (the policy's
        ``preempt_at_slice`` veto).  On the final slice (or an unsliced
        kernel) the freeze is immediate either way.
        """
        if isinstance(execution, SlicedExecution):
            w = execution
            if w._finished or w._paused:
                return
            if w.current is not None and w.exhausted:
                self.pause(w.current)  # final slice: no edge remains
                return
            if w.current is None:
                self._pause_at_edge(w)  # mid-gap: already at an edge
            elif at_edge:
                w._pending_pause = True
            else:
                # Forced mid-slice freeze: classic pause of the in-flight
                # slice; the next slice waits for resume.
                w._pending_pause = False
                w._paused = True
                w._gap_gen += 1
                self.pause(w.current)
            return
        if execution.state is not ExecState.RUNNING:
            return
        self._settle_all()
        execution.state = ExecState.PAUSED
        self._epoch_recompute()

    def resume(self, execution: KernelExecution) -> None:
        """Resume a paused kernel.

        Resuming an edge-paused :class:`SlicedExecution` dispatches its next
        slice after one ``slice_dispatch_overhead`` gap (any resize recorded
        while paused is adopted by that slice).
        """
        if isinstance(execution, SlicedExecution):
            w = execution
            # A resume always cancels a not-yet-reached edge pause — without
            # this, resuming a victim whose slice is still in flight leaves
            # the stale request to freeze at the upcoming edge, and nothing
            # ever resumes it again.
            w._pending_pause = False
            if w.current is not None:
                # Final slice, or a forced mid-slice freeze: thaw in place.
                w._paused = False
                self.resume(w.current)
                return
            if not w._paused:
                return
            w._paused = False
            w._gap_gen += 1
            self.env.call_later(
                self.costs.slice_dispatch_overhead,
                self._after_slice_gap,
                w,
                w._gap_gen,
            )
            return
        if execution.state is not ExecState.PAUSED:
            return
        execution.state = ExecState.RUNNING
        execution._last_settle = self.env.now
        self._epoch_recompute()

    @property
    def rate_trace(self) -> list[tuple[float, dict[str, float]]]:
        """``(time, {kernel name: blocks/s})`` at every epoch boundary.

        Built from the epoch log when read (only tests and diagnostics
        read it); ``rate_trace_limit`` bounds the log.
        """
        if self._rate_log is None:
            return []
        return [
            (t, {k.work.name: r.rate for k, r in zip(active, rates)})
            for t, active, rates in self._rate_log
        ]

    @property
    def active_executions(self) -> list[KernelExecution]:
        return [k for k in self._running.values() if k.state is ExecState.RUNNING]

    # -- rate derivation ----------------------------------------------------

    def _allocation(
        self,
        work: KernelWork,
        n_sms: int,
        slate: bool,
        task_size: int,
        inject_frac: float,
        order_factor: float,
    ) -> _Allocation:
        """The shared record for one allocation shape (see module doc)."""
        key = (id(work), n_sms, slate, task_size, inject_frac, order_factor)
        alloc = self._allocations.get(key)
        if alloc is None:
            if len(self._allocations) >= 256:
                self._allocations.clear()
            alloc = _Allocation(
                self, work, n_sms, slate, task_size, inject_frac, order_factor
            )
            self._allocations[key] = alloc
        return alloc

    def _epoch_recompute(self) -> None:
        """Recompute now, or defer to the end of the current timestep.

        Inside the engine's event loop every mutation (launch, resize,
        pause, resume, tail entry) *settles* progress immediately — counters
        and ``blocks_done`` are always current — but the expensive part
        (rate derivation + completion-timer rescheduling + trace sample) is
        batched into one :meth:`_flush_epoch` per device per timestep via
        :meth:`Environment.at_timestep_end`.  Outside the loop (tests and
        drivers mutating the device directly) the recompute stays immediate,
        so direct-call semantics are unchanged.
        """
        env = self.env
        if self._epoch_batch and env._processing:
            env.stats.epoch_marks += 1
            if not self._epoch_dirty:
                self._epoch_dirty = True
                self._settle_all()
                env.at_timestep_end(self._flush_epoch)
            return
        self._recompute()

    def _flush_epoch(self) -> None:
        """End-of-timestep epoch flush (idempotent within a timestep).

        Usually fired by the engine once the current instant has drained;
        :meth:`_on_timer` forces it early when a completion timer fires at
        an instant that already mutated the device — the recompute must
        land (invalidating stale timers, re-deriving rates) before the
        timer's completion logic may run, exactly as it did when every
        mutation recomputed inline.
        """
        if not self._epoch_dirty:
            return
        self._epoch_dirty = False
        self.env.stats.epoch_flushes += 1
        self._recompute()

    def _recompute(self) -> None:
        """Settle progress and re-derive all rates (epoch boundary).

        Every rate is a pure function of the active executions'
        allocation records (all other rate inputs are fixed at launch), so
        the memo is probed with their interned signature ids.
        """
        self._settle_all()
        env = self.env
        stats = env.stats
        stats.rate_recomputes += 1
        running = ExecState.RUNNING
        active = [k for k in self._running.values() if k.state is running]
        # Per-epoch instant: micro-event rate (several per launch),
        # full-detail captures only.
        if obs_trace.DETAILED:
            obs_trace.instant(
                "epoch",
                env.now,
                "device",
                "epochs",
                active=len(active),
            )
        key = (self._memo_config, *[k._alloc.sid for k in active])
        memo = self._memo
        rates = memo.data.get(key)
        if rates is not None:
            memo.hits += 1
            stats.rate_memo_hits += 1
        else:
            # Keyed inputs are needed only on a memo miss (copies of the
            # records' own); the common path goes interned ids -> shared
            # rates directly.  derive_rates counts the miss, derives and
            # memoizes.
            outputs = derive_rates(
                [_dc_replace(k._alloc.inp, key=k.id) for k in active],
                self.device,
                self.costs,
                stats=stats,
                key=key,
            )
            rates = [outputs[k.id] for k in active]
        now = env.now
        on_timer = self._on_timer
        call_later = env.call_later
        # _schedule_completion, inlined over locals (same expressions).
        for k, r in zip(active, rates):
            k._rates = r
            rate = r.rate
            if rate <= _EPS:
                k._timer_gen += 1
                k._timer_at = None
                continue
            remaining = k.work.num_blocks - k.blocks_done
            delay = (remaining if remaining > 0.0 else 0.0) / rate
            at = now + delay
            if at == k._timer_at:
                # The live timer already points at this exact instant.
                continue
            gen = k._timer_gen = k._timer_gen + 1
            k._timer_at = at
            call_later(delay, on_timer, k, gen)
        log = self._rate_log
        if log is not None:
            log.append((now, active, rates))

    def _settle_all(self) -> None:
        now = self.env.now
        if now == self._settled_at:
            # Already settled at this instant: dt is zero for every kernel
            # (kernels launched since initialise _last_settle to now), so a
            # second pass would observe no progress.
            return
        self._settled_at = now
        running = ExecState.RUNNING
        for k in self._running.values():
            if k.state is not running:
                k._last_settle = now
                continue
            dt = now - k._last_settle
            if dt <= 0:
                continue
            r = k._rates
            num_blocks, flops, l2, instr, inj1, ldst, ldst_factor = k._alloc.settle
            done = k.blocks_done
            # min(rate * dt, blocks_remaining), the remainder floored at 0.
            progressed = r.rate * dt
            remaining = num_blocks - done
            if remaining < progressed:
                progressed = remaining if remaining > 0.0 else 0.0
            k.blocks_done = done + progressed
            c = k.counters
            c.blocks_executed += progressed
            c.flops += progressed * flops
            c.bytes_l2 += progressed * l2
            c.bytes_dram += progressed * r.dram_bytes_per_block
            c.instructions += progressed * instr * inj1
            c.ldst += progressed * ldst * ldst_factor
            c.mem_throttle_time += dt * r.throttle
            c.busy_time += dt
            k._last_settle = now

    # -- completion machinery -------------------------------------------------

    def _schedule_completion(self, k: KernelExecution) -> None:
        """(Re)arm ``k``'s completion timer for its current rate.

        :meth:`_recompute`'s rate loop inlines these exact steps; keep the
        two in step.
        """
        if k._rates.rate <= _EPS:
            k._timer_gen += 1
            k._timer_at = None
            return
        delay = k.blocks_remaining / k._rates.rate
        at = self.env.now + delay
        if at == k._timer_at:
            # The live timer already points at this exact instant (the rate
            # survived the epoch unchanged, progress settled consistently) —
            # keep it and skip the cancel/alloc/heap-push cycle.
            return
        k._timer_gen += 1
        k._timer_at = at
        self.env.call_later(delay, self._on_timer, k, k._timer_gen)

    def _on_timer(self, k: KernelExecution, gen: int) -> None:
        # A pending epoch means some mutation this timestep would have
        # recomputed (and generation-bumped this timer) before it fired in
        # the unbatched engine; flush first so stale timers die identically.
        if self._epoch_dirty:
            self._flush_epoch()
        if gen != k._timer_gen:
            return
        # This generation's timer is consumed either way below.
        k._timer_at = None
        if k.state is not ExecState.RUNNING:
            return
        self._settle_all()
        remaining = k.blocks_remaining
        if remaining > 1e-6:
            rate = k._rates.rate
            if rate <= _EPS or self.env.now + remaining / rate > self.env.now:
                # Numerical slack: reschedule (or, with no throughput, wait
                # for the next rate change to restart the timer).
                self._schedule_completion(k)
                return
            # The remainder is real but the catch-up delay underflows the
            # float64 resolution of the current timestamp (deep into a long
            # trace, eps(now) * rate can exceed the 1e-6 slack).  A timer at
            # ``now + delay == now`` would fire at this same instant with
            # nothing settled and respin forever; the work left is below the
            # engine's time resolution, so complete now.
        self._begin_tail(k)

    def _begin_tail(self, k: KernelExecution) -> None:
        k.blocks_done = float(k.work.num_blocks)
        k.state = ExecState.TAIL
        tail = k._alloc.tail(k._rates.block_time)
        # Tail entry is covered by the completion span's duration; the
        # per-launch instant is full-detail only.
        if obs_trace.DETAILED:
            obs_trace.instant(
                "kernel.tail",
                self.env.now,
                "device",
                k.work.name,
                tail=tail,
            )
        k.counters.busy_time += tail
        if k._edge is None or k._edge.exhausted:
            started = k.tail_started
            if started.callbacks:
                started.succeed()
            else:
                # Nobody waits on it: mark it processed in place, with no
                # trip through the queue.  A process that yields it later
                # resumes at once, as it would after the queue trip.
                started._value = None
                started.callbacks = None
        self._epoch_recompute()
        self.env.call_later(tail, self._finish, k)

    def _finish(self, k: KernelExecution) -> None:
        k.state = ExecState.DONE
        k.counters.end_time = self.env.now
        self._running.pop(k.id, None)
        # The execution left the active set at tail entry, whose epoch
        # already gave its SMs and bandwidth to the survivors: settle, but
        # no flush (it would re-derive nothing).
        self._settle_all()
        if k._edge is not None:
            self._on_slice_done(k._edge)
            return
        k.done.succeed(k.counters)
