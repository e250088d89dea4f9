"""Per-block discrete-event executor (validation reference).

The epoch-fluid executor in :mod:`repro.gpu.device` is fast but analytic.
This module executes a kernel *block by block*, with an explicit gigathread
dispatcher (hardware mode) or persistent workers pulling from an
atomically-managed task queue (Slate mode).  It exists to validate the fluid
model: tests cross-check both executors on small grids and require agreement
within a few percent.

Implementation note: earlier versions drove one generator process per block
(hardware) or per worker (Slate) on the generic DES engine.  The executors
below replicate that event flow with specialized schedulers — a finish-time
heap for the gigathread dispatcher, a serialized-pull loop for Slate's
atomic unit — performing *the same floating-point operations in the same
order*, so results are bit-identical to the process-based version while
per-block service times are sampled and batched with numpy.

``run_detailed`` covers solo kernels; ``run_detailed_corun`` executes two
Slate kernels on disjoint SM partitions with phase-dependent service times,
validating the fluid co-run contention model as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.cache import ORDER_FACTORS, dram_fraction
from repro.gpu.device import ExecutionMode, KernelWork
from repro.gpu.occupancy import occupancy

__all__ = [
    "DetailedResult",
    "run_detailed",
    "run_detailed_corun",
    "run_detailed_sliced",
]


@dataclass
class DetailedResult:
    """Outcome of a detailed per-block run."""

    elapsed: float
    blocks_executed: int
    #: Number of atomic task-queue pulls performed (Slate mode).
    queue_pulls: int


def _block_times(
    work: KernelWork,
    device: DeviceConfig,
    mode: ExecutionMode,
    rng: np.random.Generator,
    sm_count: int,
    active_blocks: int | None = None,
) -> np.ndarray:
    """Sample per-block service times (compute/issue roofline + variance).

    A solo kernel on its SM set is DRAM-unconstrained here when its issue
    demand is below peak; when above, the issue cap itself scales down to
    the per-block DRAM share — mirroring the fluid model's waterfill with a
    single flow.
    """
    occ = occupancy(device, work.block).blocks_per_sm
    compute = work.flops_per_block / (device.sm_flops / occ)
    order = ORDER_FACTORS["slate" if mode is ExecutionMode.SLATE else "hardware"]
    dram_pb = work.bytes_per_block * dram_fraction(work.locality, order)

    issue_rate = device.sm_bw_limit / occ
    # Blocks concurrently in flight: capped by the grid (or worker count)
    # when it cannot fill the SM set's slots.
    resident = occ * sm_count
    if active_blocks is not None:
        resident = min(resident, active_blocks)
    mem = 0.0
    if work.bytes_per_block > 0:
        # Single-flow waterfill: the kernel's whole DRAM demand shares peak.
        issue_time = work.bytes_per_block / issue_rate
        dram_time = (dram_pb / work.dram_efficiency) * resident / device.dram_bandwidth
        mem = max(issue_time, dram_time)
    base = max(compute, mem, work.min_block_time)
    if work.time_cv > 0:
        sigma = math.sqrt(math.log(1.0 + work.time_cv**2))
        mu = -0.5 * sigma * sigma
        factors = rng.lognormal(mean=mu, sigma=sigma, size=work.num_blocks)
    else:
        factors = np.ones(work.num_blocks)
    return base * factors


def run_detailed(
    work: KernelWork,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    mode: ExecutionMode = ExecutionMode.HARDWARE,
    task_size: int = 1,
    sm_count: int | None = None,
    seed: int = 0,
) -> DetailedResult:
    """Execute ``work`` block-by-block and return wall-clock statistics."""
    if sm_count is None:
        sm_count = device.num_sms
    if not 1 <= sm_count <= device.num_sms:
        raise ValueError(f"sm_count must be in [1, {device.num_sms}]")
    if task_size < 1:
        raise ValueError("task_size must be >= 1")

    rng = np.random.default_rng(seed)
    occ = occupancy(device, work.block).blocks_per_sm
    slots = occ * sm_count
    if mode is ExecutionMode.HARDWARE:
        active = min(slots, work.num_blocks)
    else:
        active = min(slots, math.ceil(work.num_blocks / task_size))
    times = _block_times(work, device, mode, rng, sm_count, active_blocks=active)

    if mode is ExecutionMode.HARDWARE:
        # Gigathread engine: `slots` service positions; blocks dispatched in
        # id order as slots free up, each paying the dispatch overhead.
        # List scheduling on a finish-time heap: block b starts at the
        # earliest finish among running blocks once all slots are occupied.
        n = work.num_blocks
        durations = costs.block_launch_overhead + times
        if n <= slots:
            elapsed = float(durations.max())
        else:
            running = durations[:slots].tolist()
            heapify(running)
            for b in range(slots, n):
                heappush(running, heappop(running) + durations[b])
            elapsed = float(max(running))
        return DetailedResult(elapsed=elapsed, blocks_executed=n, queue_pulls=0)

    # Slate mode: persistent workers pulling grouped tasks from a queue
    # guarded by a serialized atomic unit.  A pull occupies the unit for
    # ``atomic_service_time``; the pulling worker then sleeps out the rest of
    # the observed atomic round-trip latency and executes its blocks
    # back-to-back.  Grants are FIFO in request-arrival order, which the
    # ready-event heap reproduces (ties broken by scheduling sequence, the
    # DES event-id order).
    n = work.num_blocks
    n_workers = min(slots, math.ceil(n / task_size))
    service = costs.atomic_service_time
    gap = max(0.0, costs.atomic_latency - costs.atomic_service_time)
    times_list = times.tolist()

    # (ready_time, seq): worker identity does not matter beyond tie-order.
    ready = [(costs.block_launch_overhead, w) for w in range(n_workers)]
    seq = n_workers
    unit_free = 0.0
    next_block = 0
    pulls = 0
    elapsed = 0.0
    while ready:
        when, _ = heappop(ready)
        grant = when if when >= unit_free else unit_free
        done = grant + service
        unit_free = done
        if next_block >= n:
            # Empty pull: the worker terminates after its serialized read.
            if done > elapsed:
                elapsed = done
            continue
        start = next_block
        next_block = start + task_size
        pulls += 1
        t = done + gap
        for b in range(start, min(start + task_size, n)):
            t = t + times_list[b]
        heappush(ready, (t, seq))
        seq += 1
    return DetailedResult(elapsed=elapsed, blocks_executed=n, queue_pulls=pulls)


def run_detailed_sliced(
    work: KernelWork,
    slice_blocks: int,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    task_size: int = 10,
    sm_count: int | None = None,
    seed: int = 0,
) -> DetailedResult:
    """Execute ``work`` slice by slice in the per-block model.

    Validation reference for sliced dispatch (``SimulatedGPU.launch_sliced``):
    the grid is tiled by :func:`repro.slate.slicing.slice_plan`, each
    slice runs as an independent Slate-mode worker launch, and consecutive
    slices are separated by ``costs.slice_dispatch_overhead``.  The elapsed
    delta against one unsliced :func:`run_detailed` call is the per-block
    model's estimate of the slicing overhead (dispatch gaps plus the extra
    ragged tail each slice pays) that the fluid executor reproduces.
    """
    from dataclasses import replace

    from repro.slate.slicing import slice_plan

    elapsed = 0.0
    blocks = 0
    pulls = 0
    for piece in slice_plan(work.num_blocks, slice_blocks):
        if piece.index:
            elapsed += costs.slice_dispatch_overhead
        sub = (
            work
            if piece.count == work.num_blocks
            else replace(work, num_blocks=piece.count)
        )
        result = run_detailed(
            sub,
            device=device,
            costs=costs,
            mode=ExecutionMode.SLATE,
            task_size=task_size,
            sm_count=sm_count,
            seed=seed + piece.index,
        )
        elapsed += result.elapsed
        blocks += result.blocks_executed
        pulls += result.queue_pulls
    return DetailedResult(elapsed=elapsed, blocks_executed=blocks, queue_pulls=pulls)


def run_detailed_corun(
    work_a: KernelWork,
    work_b: KernelWork,
    sms_a: int,
    sms_b: int,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    task_size: int = 10,
    seed: int = 0,
) -> tuple[DetailedResult, DetailedResult]:
    """Per-block co-run of two Slate kernels on disjoint SM partitions.

    Cross-validation reference for the fluid executor's contention model:
    block service times come from :func:`repro.gpu.rates.derive_rates`
    (inputs from the device's builder :func:`repro.gpu.rates.rate_input`,
    with no injection and in-order tasks) for the *current* co-residency
    phase (both kernels, then the survivor solo)
    and workers execute block-by-block.  Quasi-static: a block keeps the
    service time it started with across a phase change.

    The per-phase rate derivation is cached — rates depend only on the set
    of active kernels, so one :func:`derive_rates` call per phase replaces
    the per-block calls of the process-based version with identical floats.
    The two kernels interact *only* through the phase change at the first
    finisher's completion, so the co-run is computed in two passes: both
    kernels under the two-kernel phase (which exactly times the first
    finisher), then the survivor re-simulated with the phase switch at that
    instant.
    """
    from repro.gpu.occupancy import occupancy as occ_fn
    from repro.gpu.rates import SchedulingMode, derive_rates, rate_input

    if sms_a < 1 or sms_b < 1 or sms_a + sms_b > device.num_sms:
        raise ValueError(f"invalid partition {sms_a}+{sms_b} on {device.num_sms} SMs")

    rng = np.random.default_rng(seed)
    slate = SchedulingMode.SLATE
    inputs = {
        "a": rate_input(work_a, sms_a, device, slate, task_size, key="a"),
        "b": rate_input(work_b, sms_b, device, slate, task_size, key="b"),
    }
    works = {"a": work_a, "b": work_b}
    sm_counts = {"a": sms_a, "b": sms_b}
    lat = costs.atomic_latency

    both = derive_rates([inputs["a"], inputs["b"]], device, costs)
    base_both = {k: both[k].block_time - lat / task_size for k in ("a", "b")}

    def lognormal_factors(work):
        sigma = (
            math.sqrt(math.log(1.0 + work.time_cv**2)) if work.time_cv > 0 else 0.0
        )
        mu = -0.5 * sigma * sigma
        if sigma:
            return rng.lognormal(mean=mu, sigma=sigma, size=work.num_blocks).tolist()
        return [1.0] * work.num_blocks

    # Drawn in kernel start order (a, then b) to keep the rng stream intact.
    factors = {"a": lognormal_factors(work_a), "b": lognormal_factors(work_b)}

    def simulate(key, switch_at=None, base_solo=0.0):
        """Run one kernel's workers; phase flips to solo at ``switch_at``.

        Returns (finish_time, queue_pulls).  Workers read the task queue at
        their ready instants (chronological, creation order at t=0), sleep
        out the atomic latency, then execute their blocks back-to-back; each
        block's service time is fixed by the phase at its start.
        """
        work = works[key]
        n = work.num_blocks
        occ = occ_fn(device, work.block).blocks_per_sm
        n_workers = min(occ * sm_counts[key], -(-n // task_size))
        base = base_both[key]
        fac = factors[key]
        ready = [(0.0, w) for w in range(n_workers)]
        seq = n_workers
        next_block = 0
        pulls = 0
        finish = 0.0
        while ready:
            when, _ = heappop(ready)
            if next_block >= n:
                if when > finish:
                    finish = when
                continue
            start = next_block
            next_block = start + task_size
            pulls += 1
            t = when + lat
            for b in range(start, min(start + task_size, n)):
                bt = base if switch_at is None or t < switch_at else base_solo
                t = t + max(0.0, bt * fac[b])
            heappush(ready, (t, seq))
            seq += 1
        return finish, pulls

    # Pass 1: both kernels under the shared phase.  The earlier finisher
    # never observes a phase change, so its timing is final.
    fin = {}
    pulls = {}
    for key in ("a", "b"):
        fin[key], pulls[key] = simulate(key)
    first = "a" if fin["a"] <= fin["b"] else "b"
    second = "b" if first == "a" else "a"

    # Pass 2: the survivor speeds up once the first finisher drains.
    solo = derive_rates([inputs[second]], device, costs)
    base_solo = solo[second].block_time - lat / task_size
    fin[second], pulls[second] = simulate(
        second, switch_at=fin[first], base_solo=base_solo
    )

    results = {
        k: DetailedResult(
            elapsed=fin[k],
            blocks_executed=works[k].num_blocks,
            queue_pulls=pulls[k],
        )
        for k in ("a", "b")
    }
    return results["a"], results["b"]
