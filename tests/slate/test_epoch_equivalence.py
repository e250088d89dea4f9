"""Decision-epoch batching must be invisible to the scheduler.

The device defers the expensive part of every mutation (rate derivation,
completion-timer rescheduling, trace sampling) into one end-of-timestep
epoch flush (``SimulatedGPU._epoch_recompute``); setting
``SimulatedGPU.EPOCH_BATCH = False`` restores the recompute-per-mutation
seed behavior.  The contract is strict
equivalence: on any workload — in particular bursty same-timestamp
arrival storms, where a single epoch absorbs many submissions and
completions — the batched engine must make byte-identical scheduling
decisions to the sequential one, under every registered policy.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.device import SimulatedGPU
from repro.slate.policy import policy_names
from repro.slate.scheduler import SlateScheduler, SlateTicket

from tests.slate.difftrace import BENCHES, scheduler_trace

#: Arrival instants drawn from a tiny set so workloads collide heavily on
#: identical timestamps — the decision-epoch stress case.
INSTANTS = (0.0, 0.0, 0.0, 0.2e-3, 0.2e-3, 2.0e-3)

BURSTY = [
    (0.0, "BS", 0, None),
    (0.0, "RG", 1, None),
    (0.0, "TR", 0, 20e-3),
    (0.0, "MM", 2, None),
    (0.2e-3, "GS", 0, None),
    (0.2e-3, "BS", 3, 10e-3),
    (2.0e-3, "RG", 0, None),
]


def _trace(workload, **kwargs):
    rows, _ = scheduler_trace(workload, SlateScheduler, SlateTicket, **kwargs)
    return rows


def batched_and_sequential(workload, **kwargs):
    """The workload's decision trace with epoch batching on, then off."""
    batched = _trace(workload, **kwargs)
    SimulatedGPU.EPOCH_BATCH = False
    try:
        sequential = _trace(workload, **kwargs)
    finally:
        SimulatedGPU.EPOCH_BATCH = True
    return batched, sequential


@pytest.mark.parametrize("policy", policy_names())
def test_bursty_fixed_workload_equivalent(policy):
    batched, sequential = batched_and_sequential(
        BURSTY, policy=policy, enable_preemption=True
    )
    assert batched == sequential


entry = st.tuples(
    st.sampled_from(INSTANTS),
    st.sampled_from(BENCHES),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=50e-3)),
)


@pytest.mark.parametrize("policy", policy_names())
@given(workload=st.lists(entry, min_size=1, max_size=8))
@settings(max_examples=15, deadline=None)
def test_batched_equals_sequential_per_policy(policy, workload):
    batched, sequential = batched_and_sequential(
        workload, policy=policy, enable_preemption=True
    )
    assert batched == sequential


@given(workload=st.lists(entry, min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_batched_equals_sequential_first_run_profiling(workload):
    """Profiling solo runs interleave with arrivals inside one instant."""
    batched, sequential = batched_and_sequential(workload, preload=False)
    assert batched == sequential


@given(workload=st.lists(entry, min_size=2, max_size=8))
@settings(max_examples=15, deadline=None)
def test_batched_equals_sequential_nway(workload):
    """Three-way corun admission churns resize/rebalance inside an epoch."""
    batched, sequential = batched_and_sequential(workload, max_corun=3)
    assert batched == sequential


# -- lazy progress --------------------------------------------------------------
#
# The device settles an execution only when its rates change.  On the
# unbatched path one instant can derive r0 -> r1 -> r0 for an execution
# (in the first workload below, at t = 15.6 ms, DRAM bytes per block go
# 48,659.968 -> 42,000 -> 48,659.968 at an unchanged rate); the batched
# path derives only the final r0.  Unless the intermediate change stays
# pending and is dropped again, the unbatched path closes a segment there
# that the batched one never sees, and a later decision time moves by one
# ULP.  Both workloads are four-wide co-runs with preemption, which the
# draws of the tests above never make.

#: Workloads where a change settled in the instant that derived it makes
#: the two paths disagree (decisions 6 and 16 respectively).
SAME_INSTANT_REVERTS = [
    [
        (0.0002, "BS", 1, 0.028221437614313526),
        (0.0, "MM", 3, 0.012202039037892822),
        (0.0, "GS", 3, 0.011085648411140365),
        (0.002, "BS", 3, 0.011887109891630256),
        (0.002, "GS", 2, None),
        (0.0, "GS", 3, 0.03190397270875489),
        (0.0, "BS", 1, 0.04174965458021668),
        (0.0, "BS", 0, 0.020117995822278675),
        (0.0002, "MM", 0, None),
    ],
    [
        (0.0, "GS", 2, None),
        (0.0, "MM", 1, None),
        (0.0, "BS", 1, None),
        (0.0002, "GS", 3, None),
        (0.0002, "MM", 0, None),
        (0.002, "BS", 1, 0.016795897433339025),
        (0.0002, "GS", 3, 0.0450368515361933),
        (0.0002, "GS", 3, 0.008738959540331824),
        (0.002, "BS", 1, None),
        (0.0, "MM", 0, None),
        (0.0002, "BS", 2, None),
        (0.0, "GS", 3, None),
        (0.0, "BS", 3, 0.03481330289047229),
    ],
]


@pytest.mark.parametrize("workload", SAME_INSTANT_REVERTS, ids=["decision6", "decision16"])
def test_same_instant_rate_revert_leaves_no_segment(workload):
    batched, sequential = batched_and_sequential(
        workload, policy="mps-leftover", enable_preemption=True, max_corun=4
    )
    assert batched == sequential


@given(
    workload=st.lists(entry, min_size=2, max_size=10),
    policy=st.sampled_from(policy_names()),
    max_corun=st.integers(min_value=2, max_value=4),
    slicing=st.booleans(),
)
# A device that settled every change at once diverged on 3 of 3,000 random
# draws of this shape, so the property always tries the two known ones too.
@example(SAME_INSTANT_REVERTS[0], "mps-leftover", 4, False)
@example(SAME_INSTANT_REVERTS[1], "mps-leftover", 4, False)
@settings(max_examples=60, deadline=None)
def test_batched_equals_sequential_wide_preemptive(workload, policy, max_corun, slicing):
    """Up to four-wide co-runs with preemption, sliced or not, any policy."""
    batched, sequential = batched_and_sequential(
        workload,
        policy=policy,
        enable_preemption=True,
        max_corun=max_corun,
        slicing=slicing,
    )
    assert batched == sequential
