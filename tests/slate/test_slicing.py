"""Kernelet-style slicing: tiling properties, identity, and invariants.

The proof obligations of the slicing subsystem
(``repro/slate/slicing.py`` + the sliced dispatch path in
``repro/gpu/device.py``):

* the slice plan *exactly tiles* the grid — no gap, no overlap,
  no stray blocks — for every (grid, slice size) combination;
* a slice size >= the grid (the degenerate single-slice case) is
  **byte-identical** to the unsliced scheduler: same decision traces under
  every registered policy, same completion times, same counters;
* slice-boundary preemption and edge resizes never violate the mechanism
  invariants (SM capacity, disjoint grants, nothing starves), audited at
  every allocation change;
* a sliced 4-wide co-run reproduces its pinned golden — decisions, final
  clock and every ticket counter — bit for bit, so a host-side speed-up
  of the device's settle/slice path cannot drift a single float;
* a slice edge costs an exact number of engine events and epoch flushes,
  and the one execution a sliced launch re-arms per slice never mistakes
  an earlier slice's stale completion timer for its own.
"""

from __future__ import annotations

import dataclasses
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
    SliceConfigError,
    default_slice_blocks,
    slice_plan,
)
from repro.slate.taskqueue import SlateQueue, Task, TaskQueueConfigError

from tests.slate.difftrace import load_golden, scheduler_trace, sliced_nway4_counters
from tests.slate.test_policy_invariants import AuditingScheduler, MIXED

ALL_POLICIES = policy_names()

#: A slice size no benchmark grid reaches: forces exactly one slice.
WHOLE_GRID = 10**9


# -- tiling properties -------------------------------------------------------


@given(
    num_blocks=st.integers(min_value=1, max_value=10_000),
    slice_blocks=st.integers(min_value=1, max_value=12_000),
)
@settings(max_examples=200, deadline=None)
def test_slices_exactly_tile_grid(num_blocks, slice_blocks):
    plan = slice_plan(num_blocks, slice_blocks)
    # A slice is a coarse task: the plan is the slice-granular queue
    # drained pull by pull (Listing 2's claiming and clamping).
    queue = SlateQueue(num_blocks, slice_blocks)
    pulled = list(iter(queue.pull, None))
    assert [(s.start, s.count) for s in plan] == pulled, "plan and queue disagree"
    assert plan[0].start == 0
    assert all(s.count >= 1 for s in plan)
    assert all(
        b.start == a.start + a.count for a, b in zip(plan, plan[1:])
    ), "slices leave a gap or overlap"
    assert sum(s.count for s in plan) == num_blocks
    assert [s.index for s in plan] == list(range(len(plan)))
    assert len(plan) == -(-num_blocks // slice_blocks)
    assert queue.exhausted and queue.remaining_blocks == 0
    # Slice and task records are immutable, hashable values.
    first, last = plan[0], plan[-1]
    task = pulled[0]
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
    assert len(slice_plan(num_blocks, size)) <= DEFAULT_SLICES_PER_GRID


def test_degenerate_configs_raise_typed_errors():
    for bad in (0, -1):
        with pytest.raises(SliceConfigError):
            slice_plan(bad, 4)
        with pytest.raises(SliceConfigError):
            slice_plan(100, bad)
        with pytest.raises(SliceConfigError):
            default_slice_blocks(bad)
    # The typed error chains into the task queue's (and ValueError).
    assert issubclass(SliceConfigError, TaskQueueConfigError)
    assert issubclass(SliceConfigError, ValueError)


def test_slice_larger_than_grid_is_one_slice():
    assert slice_plan(100, WHOLE_GRID) == (KernelSlice(0, 0, 100),)
    assert slice_plan(100, WHOLE_GRID) == slice_plan(100, 100)


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


def test_five_slice_grid_makespan_tax_stays_under_ten_percent():
    """50 back-to-back launches of a ten-wave grid, whole vs in 5 slices
    of two waves each: dispatch gaps and ragged tails cost simulated
    time, but at most 10% of the whole-grid makespan."""

    def makespan(slice_blocks):
        env, gpu = make_gpu()

        def driver(env):
            for i in range(50):
                kw = dict(mode=ExecutionMode.SLATE, task_size=10, inject_frac=0.03)
                if slice_blocks is None:
                    handle = gpu.launch(compute_work(f"k{i}"), **kw)
                else:
                    handle = gpu.launch_sliced(
                        compute_work(f"k{i}"), slice_blocks=slice_blocks, **kw
                    )
                yield handle.done

        env.process(driver(env))
        env.run()
        return env.now, env.stats.slice_dispatches

    whole, whole_slices = makespan(None)
    sliced, slices = makespan(9_600)
    assert whole_slices == 0
    assert slices == 50 * 5
    assert whole < sliced <= whole * 1.10


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


def test_solo_sliced_launch_event_and_flush_budget():
    """What the engine pays per slice edge, pinned exactly.

    An interior slice costs three events (its completion timer, its tail
    timer and the dispatch-gap timer) and two epoch flushes (its dispatch
    and its tail entry).  The final slice costs what an unsliced launch
    does: its completion and tail timers and its ``done`` event; its
    ``tail_started`` (the launch's own, which nothing waits on here) is
    marked processed in place.  The first dispatch happens outside the run
    loop, so it recomputes inline, unflushed.
    """
    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        compute_work(), mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    env.run(until=handle.done)
    assert handle.slices_dispatched == 8
    assert env.stats.events_processed == 7 * 3 + 3
    assert env.stats.epoch_flushes == 7 + 8


def test_final_slice_fires_the_launchs_own_tail_started():
    """The final slice shares its launch's ``tail_started`` (no forwarding
    callback).  A waiter on a sliced launch resumes at the final slice's
    tail entry; with a single slice it resumes exactly when a waiter on the
    unsliced launch does, and both runs process the same events."""
    work = compute_work()

    def waited(slice_blocks):
        env, gpu = make_gpu()
        if slice_blocks is None:
            h = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=10)
        else:
            h = gpu.launch_sliced(
                work, mode=ExecutionMode.SLATE, task_size=10,
                slice_blocks=slice_blocks,
            )
        resumed = []

        def waiter(env):
            yield h.tail_started
            resumed.append((env.now, h.state))

        env.process(waiter(env))
        env.run(until=h.done)
        return h, resumed, env

    h, resumed, _ = waited(24_000)
    assert h.slices_dispatched == 2
    assert h.current is None and h._exec.tail_started is h.tail_started
    assert [state for _, state in resumed] == [ExecState.TAIL]
    _, single, single_env = waited(WHOLE_GRID)
    _, unsliced, unsliced_env = waited(None)
    assert single == unsliced
    assert (
        single_env.stats.events_processed == unsliced_env.stats.events_processed
    )


def test_finished_sliced_launch_is_freed_by_reference_counting():
    """Slices run on one execution that points back at its launch; after
    the final slice's edge that link is gone, so a finished launch is
    freed as soon as its caller drops it, with no work for the cyclic
    collector (trace-scale slicing finishes thousands of launches)."""
    import gc
    import weakref

    env, gpu = make_gpu()
    handle = gpu.launch_sliced(
        compute_work(), mode=ExecutionMode.SLATE, task_size=10, slice_blocks=6000
    )
    env.run(until=handle.done)
    assert handle.slices_dispatched == 8
    launch = weakref.ref(handle)
    gc.disable()
    try:
        del handle
        assert launch() is None
    finally:
        gc.enable()


def test_forced_freeze_resize_and_resume_leave_stale_timers_harmless():
    """A completion timer of slice 1 outlives it on the shared execution.

    ``a`` starts on SMs 0-14 beside a memory-heavy ``b`` on 15-29, so its
    first completion timer is set at the contended rate.  ``a`` is frozen
    mid-slice (``pause(at_edge=False)``); ``b`` finishes meanwhile; ``a``
    is resized to all SMs (adopted at the next edge) and resumed at the
    uncontended rate.  Slice 1 then ends before that first timer is due,
    so the timer is still queued when slice 2 re-arms the same execution.
    It must stay stale: each slice completes on exactly one live timer,
    and every counter equals the values recorded before slices shared an
    execution.
    """
    env, gpu = make_gpu()
    executions = set()
    gens_at_dispatch = []
    dispatch = gpu._dispatch_slice

    def recording_dispatch(wrapper):
        dispatch(wrapper)
        executions.add(wrapper.current)
        gens_at_dispatch.append(wrapper.current._timer_gen)

    fired = []  # (generation, live generation, slices dispatched)
    on_timer = gpu._on_timer

    def recording_on_timer(k, gen):
        if k in executions:
            fired.append((gen, k._timer_gen, len(gens_at_dispatch)))
        on_timer(k, gen)

    gpu._dispatch_slice = recording_dispatch
    gpu._on_timer = recording_on_timer
    b = gpu.launch(
        compute_work("b", num_blocks=480, flops_per_block=1e5, bytes_per_block=4e6),
        gpu.sm_range(15, 29),
        mode=ExecutionMode.SLATE,
        task_size=10,
    )
    a = gpu.launch_sliced(
        compute_work("a", flops_per_block=1e5, bytes_per_block=1e6),
        gpu.sm_range(0, 14),
        mode=ExecutionMode.SLATE,
        task_size=10,
        slice_blocks=12_000,
    )
    env.timeout(0.5e-3).callbacks.append(lambda _e: gpu.pause(a, at_edge=False))
    env.timeout(16e-3).callbacks.append(
        lambda _e: (gpu.resize(a, gpu.sm_range(0, 29), notify=False), gpu.resume(a))
    )
    done = []
    a.done.callbacks.append(done.append)
    counters = env.run(until=a.done)

    assert b.counters.end_time < 16e-3, "b must leave while a is frozen"
    assert len(executions) == 1 and a.slices_dispatched == 4
    # A timer no newer than the generation at the latest dispatch was set
    # before that slice was armed.
    assert [
        n for gen, _, n in fired if n > 1 and gen <= gens_at_dispatch[n - 1]
    ], "no stale timer outlived its slice"
    assert sum(gen == live for gen, live, _ in fired) == 4
    assert len(done) == 1 and a.completed_blocks == 48_000
    assert a.state is ExecState.DONE
    assert env.now == 0.11823731180096818
    assert b.counters.end_time == 0.010990261091684174
    assert dataclasses.asdict(counters) == {
        "name": "a",
        "start_time": 0.0,
        "end_time": 0.11823731180096818,
        "blocks_executed": 48000.0,
        "flops": 4800000000.0,
        "bytes_l2": 48000000000.0,
        "bytes_dram": 48000000000.0,
        "instructions": 0.0,
        "ldst": 0.0,
        "mem_throttle_time": 0.05498783010327212,
        "busy_time": 0.10273131180096814,
        "resizes": 1,
        "resize_stall": 0.0,
    }


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
    recorder = obs_trace.TraceSink(capacity=4096, detail="light")
    obs_trace.set_sink(recorder)
    try:
        assert obs_trace.ENABLED and not obs_trace.DETAILED
        sliced_launch()
    finally:
        obs_trace.set_sink(None)
    assert pulls.value - before == 8
    assert not [e for e in recorder.events() if e.name == "taskqueue.pull"]
    with obs_trace.capture() as sink:
        sliced_launch()
    assert sum(e.name == "taskqueue.pull" for e in sink.events()) == 8


@given(
    shape=st.integers(min_value=1, max_value=6_000).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=max(1, n // 24), max_value=n + 500)
        )
    ),
    resize_at=st.floats(min_value=0.0, max_value=1.0),
    pause_at=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_sliced_launch_dispatches_exactly_the_slicers_plan(
    shape, resize_at, pause_at
):
    """The device indexes the launch's tiling, computed once; what it
    dispatches is ``slice_plan(num_blocks, slice_blocks)``, with or
    without a resize and an edge pause landing mid-run, and each slice
    still counts one task-queue pull (counter and detailed instant)."""
    from repro.obs import trace as obs_trace
    from repro.obs.registry import registry

    num_blocks, slice_blocks = shape
    plan = [(s.start, s.count) for s in slice_plan(num_blocks, slice_blocks)]
    pulls = registry().counter("taskqueue.pulls")

    def run(interrupt_span):
        env, gpu = make_gpu()
        before = pulls.value
        with obs_trace.capture() as sink:
            handle = gpu.launch_sliced(
                compute_work(num_blocks=num_blocks),
                mode=ExecutionMode.SLATE,
                task_size=10,
                slice_blocks=slice_blocks,
            )
            if interrupt_span is not None:
                env.call_later(
                    resize_at * interrupt_span,
                    gpu.resize,
                    handle,
                    gpu.sm_range(0, 11),
                    False,
                )
                env.call_later(pause_at * interrupt_span, gpu.pause, handle)
                env.call_later(
                    pause_at * interrupt_span + 1e-3, gpu.resume, handle
                )
            counters = env.run(until=handle.done)
        events = sink.events()
        dispatched = [
            (e.args["start"], e.args["count"])
            for e in events
            if e.name == "slice.dispatch"
        ]
        pulled = [
            (e.args["start"], e.args["count"])
            for e in events
            if e.name == "taskqueue.pull"
        ]
        assert dispatched == pulled == plan
        assert pulls.value - before == len(plan)
        assert handle.slices_dispatched == len(plan)
        assert counters.blocks_executed == pytest.approx(num_blocks)
        return env.now

    span = run(None)
    run(span)


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
