"""Kernelet-style slicing: tiling properties, identity, and invariants.

Three proof obligations for the slicing subsystem
(``repro/slate/slicing.py`` + the sliced dispatch path in
``repro/gpu/device.py``):

* the slicer's partition *exactly tiles* the grid — no gap, no overlap,
  no stray blocks — for every (grid, slice size) combination;
* a slice size >= the grid (the degenerate single-slice case) is
  **byte-identical** to the unsliced scheduler: same decision traces under
  every registered policy, same completion times, same counters;
* slice-boundary preemption and edge resizes never violate the mechanism
  invariants (SM capacity, disjoint grants, nothing starves), audited at
  every allocation change;
* a sliced 4-wide co-run reproduces its pinned golden — decisions, final
  clock and every ticket counter — bit for bit, so a host-side speed-up
  of the device's settle/slice path cannot drift a single float.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, TITAN_XP
from repro.gpu.device import (
    ExecState,
    ExecutionMode,
    KernelWork,
    SimulatedGPU,
    SlicedExecution,
)
from repro.gpu.occupancy import BlockResources
from repro.sim import Environment
from repro.slate.policy import Table1Policy, policy_names
from repro.slate.scheduler import SlateScheduler, SlateTicket
from repro.slate.slicing import (
    DEFAULT_SLICES_PER_GRID,
    KernelSlice,
    KernelSlicer,
    SliceConfigError,
    default_slice_blocks,
)
from repro.slate.taskqueue import SlateQueue, Task, TaskQueueConfigError

from tests.slate.difftrace import load_golden, scheduler_trace, sliced_nway4_counters
from tests.slate.test_policy_invariants import AuditingScheduler, MIXED

ALL_POLICIES = policy_names()

#: A slice size no benchmark grid reaches: forces exactly one slice.
WHOLE_GRID = 10**9


# -- slicer properties -------------------------------------------------------


@given(
    num_blocks=st.integers(min_value=1, max_value=10_000),
    slice_blocks=st.integers(min_value=1, max_value=12_000),
)
@settings(max_examples=200, deadline=None)
def test_slices_exactly_tile_grid(num_blocks, slice_blocks):
    slicer = KernelSlicer(num_blocks, slice_blocks)
    plan = slicer.plan()
    consumed = list(slicer)
    assert plan == consumed, "plan() and consumption disagree"
    assert plan[0].start == 0
    assert all(s.count >= 1 for s in plan)
    assert all(
        b.start == a.start + a.count for a, b in zip(plan, plan[1:])
    ), "slices leave a gap or overlap"
    assert sum(s.count for s in plan) == num_blocks
    assert [s.index for s in plan] == list(range(len(plan)))
    assert len(plan) == slicer.num_slices
    assert slicer.exhausted
    assert slicer.remaining_blocks == 0
    assert slicer.next_slice() is None
    # Slice and task records are immutable, hashable values.
    first, last = plan[0], plan[-1]
    task = SlateQueue(num_blocks, slice_blocks).pull()
    assert task.block_range == first.block_range == range(0, first.count)
    assert last.block_range.stop == num_blocks
    for record, twin in (
        (first, KernelSlice(first.index, first.start, first.count)),
        (task, Task(task.start, task.count)),
    ):
        assert record == twin and hash(record) == hash(twin)
        with pytest.raises(AttributeError):
            record.start = 1
    assert len(set(plan)) == len(plan)


@given(
    num_blocks=st.integers(min_value=1, max_value=10_000),
    task_size=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_default_slice_blocks_bounds(num_blocks, task_size):
    size = default_slice_blocks(num_blocks, task_size)
    assert size >= max(1, task_size), "slice finer than one worker task"
    slicer = KernelSlicer(num_blocks, size)
    assert slicer.num_slices <= DEFAULT_SLICES_PER_GRID


def test_degenerate_configs_raise_typed_errors():
    for bad in (0, -1):
        with pytest.raises(SliceConfigError):
            KernelSlicer(bad, 4)
        with pytest.raises(SliceConfigError):
            KernelSlicer(100, bad)
        with pytest.raises(SliceConfigError):
            default_slice_blocks(bad)
    # The typed error chains into the task queue's (and ValueError).
    assert issubclass(SliceConfigError, TaskQueueConfigError)
    assert issubclass(SliceConfigError, ValueError)


def test_slice_larger_than_grid_is_one_slice():
    slicer = KernelSlicer(100, WHOLE_GRID)
    assert slicer.slice_blocks == 100
    assert slicer.num_slices == 1
    assert slicer.plan() == list(KernelSlicer(100, 100))


# -- device-level sliced dispatch --------------------------------------------


def make_gpu(**cost_overrides):
    env = Environment()
    costs = CostModel(**cost_overrides)
    return env, SimulatedGPU(env, TITAN_XP, costs)


def compute_work(name="k", num_blocks=48_000, **kw):
    return KernelWork(
        name=name,
        num_blocks=num_blocks,
        block=BlockResources(threads_per_block=128, registers_per_thread=32),
        flops_per_block=kw.pop("flops_per_block", 2e6),
        bytes_per_block=kw.pop("bytes_per_block", 1e5),
        **kw,
    )


COUNTER_FIELDS = (
    "start_time",
    "end_time",
    "blocks_executed",
    "flops",
    "bytes_l2",
    "bytes_dram",
    "instructions",
    "ldst",
    "mem_throttle_time",
    "busy_time",
    "resizes",
    "resize_stall",
)


def test_single_slice_launch_is_byte_identical_to_unsliced():
    work = compute_work()
    env1, gpu1 = make_gpu()
    h1 = gpu1.launch(work, mode=ExecutionMode.SLATE, task_size=10, inject_frac=0.03)
    c1 = env1.run(until=h1.done)
    env2, gpu2 = make_gpu()
    h2 = gpu2.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, inject_frac=0.03,
        slice_blocks=WHOLE_GRID,
    )
    c2 = env2.run(until=h2.done)
    assert env1.now == env2.now
    assert env1.stats.events_processed == env2.stats.events_processed
    for field in COUNTER_FIELDS:
        assert getattr(c1, field) == getattr(c2, field), field


def test_multi_slice_completes_all_blocks_and_counts_dispatches():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, inject_frac=0.03,
        slice_blocks=6000,
    )
    counters = env.run(until=handle.done)
    assert counters.blocks_executed == pytest.approx(48_000)
    assert handle.slices_dispatched == 8
    assert env.stats.slice_dispatches == 8
    assert handle.state is ExecState.DONE
    assert handle.blocks_remaining == 0.0


def test_sliced_launch_pays_dispatch_gaps():
    work = compute_work()
    env1, gpu1 = make_gpu()
    h1 = gpu1.launch(work, mode=ExecutionMode.SLATE, task_size=10)
    env1.run(until=h1.done)
    env2, gpu2 = make_gpu()
    h2 = gpu2.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    env2.run(until=h2.done)
    # Slicing costs real time (dispatch gaps + per-slice ragged waves) ...
    assert env2.now > env1.now
    # ... but at least the 7 inter-slice gaps are accounted.
    assert env2.now >= env1.now + 7 * gpu2.costs.slice_dispatch_overhead


def test_mid_slice_resize_applies_at_edge_with_zero_stall():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    env.timeout(3e-3).callbacks.append(
        lambda _e: gpu.resize(handle, gpu.sm_range(0, 14), notify=False)
    )
    counters = env.run(until=handle.done)
    assert counters.resizes == 1
    assert counters.resize_stall == 0.0, "edge resize must not drain-stall"
    assert handle.sm_ids == gpu.sm_range(0, 14)


def test_retreat_resize_still_stalls_unsliced_launches():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=10)
    env.timeout(3e-3).callbacks.append(
        lambda _e: gpu.resize(handle, gpu.sm_range(0, 14), notify=False)
    )
    counters = env.run(until=handle.done)
    expected = gpu.costs.retreat_latency + gpu.costs.kernel_launch_overhead
    assert counters.resizes == 1
    assert counters.resize_stall == pytest.approx(expected)


def test_final_slice_resize_falls_back_to_retreat():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=WHOLE_GRID
    )
    env.timeout(3e-3).callbacks.append(
        lambda _e: gpu.resize(handle, gpu.sm_range(0, 10), notify=False)
    )
    counters = env.run(until=handle.done)
    expected = gpu.costs.retreat_latency + gpu.costs.kernel_launch_overhead
    assert counters.resizes == 1
    assert counters.resize_stall == pytest.approx(expected)


def test_pause_lands_at_slice_edge_and_resume_continues():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    observed = []
    env.timeout(3e-3).callbacks.append(
        lambda _e: (gpu.pause(handle), gpu.pause(handle))  # idempotent
    )
    env.timeout(9e-3).callbacks.append(
        lambda _e: (observed.append(handle.state), gpu.resume(handle))
    )
    counters = env.run(until=handle.done)
    assert observed == [ExecState.PAUSED]
    assert env.stats.slice_preempts == 1
    assert counters.blocks_executed == pytest.approx(48_000)
    assert handle.state is ExecState.DONE


def test_forced_pause_freezes_mid_slice():
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    at_pause = []
    env.timeout(0.8e-3).callbacks.append(
        lambda _e: (
            gpu.pause(handle, at_edge=False),
            at_pause.append(
                (
                    handle.state,
                    handle.current,
                    handle.current.state if handle.current else None,
                )
            ),
        )
    )
    env.timeout(9e-3).callbacks.append(lambda _e: gpu.resume(handle))
    counters = env.run(until=handle.done)
    state, frozen_current, frozen_state = at_pause[0]
    assert state is ExecState.PAUSED
    # Forced freeze stops *inside* the slice: the in-flight slice is kept
    # and itself frozen (an edge pause would have retired it first).
    assert frozen_current is not None
    assert frozen_state is ExecState.PAUSED
    assert counters.blocks_executed == pytest.approx(48_000)


def test_resume_before_edge_cancels_pending_pause():
    """Resume racing ahead of a requested edge pause must cancel it.

    A VIP can complete while its victim's slice is still in flight: the
    scheduler resumes the victim *before* the edge the pause was headed
    for.  The stale pending pause must not fire at that edge — it would
    freeze the kernel with nobody left to resume it (the hang the
    hypothesis workload suite caught).
    """
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    # Both land mid-first-slice: the edge pause is requested, then
    # cancelled by resume before any slice boundary is reached.
    env.timeout(0.5e-3).callbacks.append(lambda _e: gpu.pause(handle))
    env.timeout(0.8e-3).callbacks.append(lambda _e: gpu.resume(handle))
    counters = env.run(until=handle.done)
    assert env.stats.slice_preempts == 0, "cancelled pause must never fire"
    assert counters.blocks_executed == pytest.approx(48_000)
    assert handle.state is ExecState.DONE


def test_sliced_launch_requires_slate_mode():
    env, gpu = make_gpu()
    with pytest.raises(ValueError):
        gpu.launch_sliced(compute_work(), mode=ExecutionMode.HARDWARE)


def test_slice_registry_counters_mirror_stats():
    from repro.obs.registry import registry

    reg = registry()
    d0 = reg.counter("slice.dispatches").value
    p0 = reg.counter("slice.preempts").value
    work = compute_work()
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        work, mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    env.timeout(3e-3).callbacks.append(lambda _e: gpu.pause(handle))
    env.timeout(9e-3).callbacks.append(lambda _e: gpu.resume(handle))
    env.run(until=handle.done)
    assert reg.counter("slice.dispatches").value - d0 == 8
    assert reg.counter("slice.preempts").value - p0 == 1


def test_sliced_nway4_counters_match_golden():
    """Sliced 4-wide co-run: every decision, the clock, every counter."""
    record, sched = sliced_nway4_counters()
    stats = sched.env.stats
    # The scenario's teeth: every slice mechanism fires at 4-way width.
    assert max(len(row[3]) for row in record["rows"]) == 4
    assert stats.slice_dispatches == 256
    assert stats.slice_preempts == 3
    assert sched.resizes == 68
    # JSON floats round-trip exactly, so this comparison is bit for bit.
    assert json.loads(json.dumps(record)) == load_golden("sliced_nway4_counters")


def test_taskqueue_pull_instants_are_detailed_only():
    """A light recorder keeps no per-slice pulls; the counter still counts."""
    from repro.obs import recorder as obs_recorder
    from repro.obs import trace as obs_trace
    from repro.obs.registry import registry

    pulls = registry().counter("taskqueue.pulls")

    def sliced_launch():
        env, gpu = make_gpu()
        handle = gpu.launch_sliced(
            compute_work(), mode=ExecutionMode.SLATE, task_size=10,
            slice_blocks=6000,
        )
        env.run(until=handle.done)

    before = pulls.value
    recorder = obs_recorder.install(capacity=4096)
    try:
        assert obs_trace.ENABLED and not obs_trace.DETAILED
        sliced_launch()
    finally:
        obs_recorder.uninstall()
    assert pulls.value - before == 8
    assert not [e for e in recorder.events() if e.name == "taskqueue.pull"]
    with obs_trace.capture() as sink:
        sliced_launch()
    assert sum(e.name == "taskqueue.pull" for e in sink.events) == 8


# -- scheduler integration: byte-identity ------------------------------------

TRACE_WORKLOAD = [
    (0.0, "BS", 0, None),
    (0.2e-3, "RG", 1, None),
    (0.5e-3, "TR", 0, 40e-3),
    (0.9e-3, "MM", 2, None),
    (2.2e-3, "BS", 2, None),
    (3.0e-3, "RG", 0, 60e-3),
]


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_whole_grid_slicing_keeps_decision_traces_byte_identical(policy):
    """slicing on + slice >= grid  ==  slicing off, under every policy."""
    base_rows, base = scheduler_trace(
        TRACE_WORKLOAD, SlateScheduler, SlateTicket, policy=policy
    )
    sliced_rows, sliced = scheduler_trace(
        TRACE_WORKLOAD,
        SlateScheduler,
        SlateTicket,
        policy=policy,
        slicing=True,
        slice_blocks=WHOLE_GRID,
    )
    assert sliced_rows == base_rows
    assert sliced.env.now == base.env.now
    assert sliced.env.stats.events_processed == base.env.stats.events_processed


@pytest.mark.parametrize("policy", ("table1", "edf"))
def test_whole_grid_slicing_identity_survives_preemption(policy):
    workload = [
        (0.0, "TR", 0, None),
        (0.4e-3, "TR", 3, None),
        (4.0e-3, "BS", 1, None),
    ]
    base_rows, base = scheduler_trace(
        workload, SlateScheduler, SlateTicket, policy=policy,
        enable_preemption=True,
    )
    sliced_rows, sliced = scheduler_trace(
        workload, SlateScheduler, SlateTicket, policy=policy,
        enable_preemption=True, slicing=True, slice_blocks=WHOLE_GRID,
    )
    assert base.preemptions > 0, "scenario lost its teeth"
    assert sliced_rows == base_rows
    assert sliced.env.now == base.env.now


def test_slicing_off_is_the_default():
    _, sched = scheduler_trace(TRACE_WORKLOAD[:2], SlateScheduler, SlateTicket)
    assert sched.slicing is False
    assert sched.slice_blocks is None
    assert sched.env.stats.slice_dispatches == 0
    assert sched.env.stats.slice_preempts == 0


# -- scheduler integration: real slicing upholds the invariants --------------


def run_sliced_workload(
    policy,
    workload,
    enable_preemption=False,
    max_corun=2,
    slice_blocks=None,
):
    """Drive an AuditingScheduler with slicing *on* through ``workload``."""
    env = Environment()
    costs = CostModel()
    gpu = SimulatedGPU(env, TITAN_XP, costs)
    from repro.kernels.registry import by_name
    from repro.slate.profiler import ProfileTable, offline_profile

    profiles = ProfileTable(TITAN_XP)
    specs = {}
    for _, bench, _, _ in workload:
        if bench not in specs:
            specs[bench] = by_name(bench)
            profiles.put(
                specs[bench].name, offline_profile(specs[bench], TITAN_XP, costs)
            )
    sched = AuditingScheduler(
        env,
        gpu,
        TITAN_XP,
        costs,
        profiles=profiles,
        enable_preemption=enable_preemption,
        max_corun=max_corun,
        policy=policy,
        slicing=True,
        slice_blocks=slice_blocks,
    )
    tickets = []

    def arrival(env, at, spec, priority, deadline):
        if at > env.now:
            yield env.timeout(at - env.now)
        ticket = SlateTicket(
            spec=spec,
            profile_key=spec.name,
            done=env.event(),
            enqueued_at=env.now,
            priority=priority,
            task_size=10,
            deadline=deadline,
        )
        tickets.append(ticket)
        sched.submit(ticket)

    procs = [
        env.process(arrival(env, at, specs[bench], priority, deadline))
        for at, bench, priority, deadline in sorted(workload, key=lambda w: w[0])
    ]
    env.run(until=env.all_of(procs))
    env.run()
    return sched, tickets


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_sliced_workload_upholds_invariants(policy):
    sched, tickets = run_sliced_workload(policy, MIXED, max_corun=3)
    assert sched.waiting_count == 0 and sched.running_count == 0
    assert sched.env.stats.slice_dispatches > 0
    for t in tickets:
        assert t.done.triggered, f"{t.spec.name} starved under sliced {policy}"
        assert t.done.ok or t.rejected


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_slice_boundary_preemption_upholds_invariants(policy):
    workload = [
        (0.0, "TR", 0, None),
        (0.4e-3, "TR", 3, None),
        (4.0e-3, "BS", 1, None),
    ]
    sched, tickets = run_sliced_workload(
        policy, workload, enable_preemption=True
    )
    assert sched.waiting_count == 0 and sched.running_count == 0
    for t in tickets:
        assert t.done.triggered
        if t.preemptions:
            assert t.done.ok, f"preempted {t.spec.name} never resumed"
    if policy == "table1":
        assert sched.preemptions > 0


class _ForceRetreatPolicy(Table1Policy):
    """table1, but vetoes edge preemption (classic freeze instead)."""

    name = "table1"

    def preempt_at_slice(self, head, victim) -> bool:
        return False


def test_preempt_at_slice_veto_forces_classic_freeze():
    workload = [
        (0.0, "TR", 0, None),
        (0.4e-3, "TR", 3, None),
    ]
    sched, tickets = run_sliced_workload(
        _ForceRetreatPolicy(), workload, enable_preemption=True
    )
    assert sched.preemptions > 0
    # The veto means no edge preemption was recorded on the device.
    assert sched.env.stats.slice_preempts == 0
    for t in tickets:
        assert t.done.triggered and t.done.ok


entry = st.tuples(
    st.floats(min_value=0.0, max_value=10e-3, allow_nan=False),
    st.sampled_from(("BS", "GS", "MM", "RG", "TR")),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.floats(min_value=1e-4, max_value=50e-3)),
)


@pytest.mark.parametrize("policy", ("table1", "edf", "online-predictive"))
@given(workload=st.lists(entry, min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_generated_sliced_workloads_drain_within_capacity(policy, workload):
    sched, tickets = run_sliced_workload(
        policy, workload, enable_preemption=True, max_corun=3
    )
    assert sched.waiting_count == 0 and sched.running_count == 0
    for t in tickets:
        assert t.done.triggered
        assert t.done.ok or t.rejected


# -- policy slice sizing -----------------------------------------------------


def test_edf_slices_deadline_launches_whole():
    sched, _ = run_sliced_workload("edf", [(0.0, "BS", 0, 80e-3)])
    # One launch, one deadline, sliced whole: exactly one slice dispatched.
    assert sched.env.stats.slice_dispatches == 1


def test_edf_slices_best_effort_finer_than_default():
    sched, _ = run_sliced_workload("edf", [(0.0, "BS", 0, None)])
    base, _ = run_sliced_workload("table1", [(0.0, "BS", 0, None)])
    assert (
        sched.env.stats.slice_dispatches > base.env.stats.slice_dispatches
    ), "edf best-effort launches should expose more edges than the default"


def test_online_predictive_sizes_slices_from_observations():
    # Two launches of the same kernel: the first has no observations (falls
    # back to the default sizing); the second sizes from the observed EMA.
    workload = [(0.0, "BS", 0, None), (60e-3, "BS", 0, None)]
    sched, tickets = run_sliced_workload("online-predictive", workload)
    assert all(t.done.ok for t in tickets)
    assert sched.policy.observations(tickets[0]) >= 1
    work = tickets[1].spec.work()
    quota = sched.policy.slice_quota(tickets[1], work)
    assert quota is not None
    assert 1 <= -(-work.num_blocks // quota) <= 64


def test_scheduler_rejects_degenerate_slice_blocks():
    env = Environment()
    gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    with pytest.raises(SliceConfigError):
        SlateScheduler(env, gpu, TITAN_XP, CostModel(), slice_blocks=0)
