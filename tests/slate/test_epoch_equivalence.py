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
from hypothesis import given, settings
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
