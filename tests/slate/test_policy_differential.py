"""Differential decision-trace harness: refactored scheduler vs the seed.

The policy refactor's proof obligation is behavioral, not structural:
with the default ``table1`` policy the mechanism-only scheduler must make
*byte-identical decisions* to the pre-refactor seed — same kinds, same
SM grants, same reason strings, same timestamps.  Three layers of proof:

1. **Pinned goldens** — the seed scheduler's decision traces for the
   paper's Figure 4 scenario, the Table-I class-representative workload,
   and a randomized arrival mix were captured *before* the refactor
   (``tests/slate/goldens/decision_trace_*.json``).  The live scheduler
   must still reproduce all three exactly.  A fourth golden, a 4-wide
   co-run trace, pins the rates of co-run widths the others never reach.
2. **Frozen-seed differential** — ``_seed_scheduler.py`` is a verbatim
   copy of the seed implementation; fixed workloads replay against both
   schedulers and the traces are compared row for row.
3. **Property-based differential** — hypothesis generates arrival/
   priority/deadline workloads (including first-run profiling and
   preemption variants) and both schedulers must agree on every one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slate.scheduler import SlateScheduler, SlateTicket

from tests.slate import _seed_scheduler
from tests.slate.difftrace import (
    BENCHES,
    fig4_trace,
    load_golden,
    nway4_workload,
    scheduler_trace,
    tab1_trace,
)


def random42_workload():
    """The randomized golden's workload (captured pre-refactor, seed 42)."""
    rng = random.Random(42)
    return [
        (rng.random() * 8e-3, BENCHES[rng.randrange(5)], rng.randrange(3), None)
        for _ in range(24)
    ]


def seed_trace(workload, **kwargs):
    rows, _ = scheduler_trace(
        workload, _seed_scheduler.SlateScheduler, _seed_scheduler.SlateTicket, **kwargs
    )
    return rows


def live_trace(workload, **kwargs):
    rows, _ = scheduler_trace(workload, SlateScheduler, SlateTicket, **kwargs)
    return rows


# -- layer 1: pinned pre-refactor goldens ------------------------------------


def test_fig4_trace_matches_seed_golden():
    assert fig4_trace() == load_golden("decision_trace_fig4")


def test_tab1_trace_matches_seed_golden():
    assert tab1_trace() == load_golden("decision_trace_tab1")


def test_randomized_trace_matches_seed_golden():
    rows = live_trace(random42_workload(), enable_preemption=True)
    assert rows == load_golden("decision_trace_random42")


def test_four_wide_trace_matches_golden():
    rows = live_trace(nway4_workload(), max_corun=4, enable_preemption=True)
    assert max(len(row[3]) for row in rows) == 4
    assert rows == load_golden("decision_trace_nway4")


# -- layer 2: frozen-seed differential on fixed workloads --------------------

BURSTY = [
    (0.0, "BS", 0, None),
    (0.0, "RG", 0, None),
    (0.1e-3, "TR", 1, None),
    (0.3e-3, "MM", 0, None),
    (0.3e-3, "GS", 2, None),
    (2.0e-3, "BS", 0, None),
    (2.1e-3, "RG", 2, None),
    (6.0e-3, "TR", 0, None),
]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"enable_preemption": True},
        {"preload": False},
        {"max_corun": 3},
        {"partition_strategy": "even"},
    ],
    ids=["default", "preemption", "first-run-profiling", "nway", "even-split"],
)
def test_bursty_workload_differential(kwargs):
    assert live_trace(BURSTY, **kwargs) == seed_trace(BURSTY, **kwargs)


def test_differential_rejects_a_wrong_policy():
    """The harness has teeth: a non-default policy diverges on this mix."""
    assert live_trace(BURSTY, policy="mps-leftover") != seed_trace(BURSTY)


# -- layer 3: property-based differential ------------------------------------

arrival = st.floats(min_value=0.0, max_value=12e-3, allow_nan=False)
entry = st.tuples(
    arrival,
    st.sampled_from(BENCHES),
    st.integers(min_value=0, max_value=3),
    # table1 ignores deadlines entirely; generating them proves the live
    # scheduler's deadline plumbing cannot perturb default decisions (the
    # seed ticket has no deadline field, so it never sees them).
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=50e-3)),
)
workloads = st.lists(entry, min_size=1, max_size=10)


@given(workload=workloads)
@settings(max_examples=60, deadline=None)
def test_table1_matches_seed_on_generated_workloads(workload):
    assert live_trace(workload) == seed_trace(workload)


@given(workload=workloads)
@settings(max_examples=40, deadline=None)
def test_table1_matches_seed_with_preemption(workload):
    # Strict row-for-row parity: the same-instant preemption/completion
    # race fix is backported into the frozen seed (the one sanctioned
    # edit there), so preemption-enabled traces must match exactly.
    assert live_trace(workload, enable_preemption=True) == seed_trace(
        workload, enable_preemption=True
    )


def test_preemption_race_crash_parity():
    """Pin the fixed same-instant preemption/completion race behavior.

    Four same-instant arrivals where a priority-1 ticket would preempt a
    tenant whose completion event already fired this timestep used to
    crash the scheduler: ``gpu.pause`` no-ops on the already-draining
    victim, the entry moves to ``_preempted``, and the pending completion
    callback's ``_running.remove`` raises ValueError.  Preemption
    candidates are now restricted to device-side RUNNING executions (in
    the live scheduler and, backported, in the frozen seed), so the
    workload completes; the VIP is served without a bogus preemption —
    the drained tenant frees the device at the same instant.
    """
    workload = [
        (0.0, "BS", 0, None),
        (0.0, "BS", 0, None),
        (0.0, "RG", 1, None),
        (0.0, "BS", 1, None),
    ]
    rows = live_trace(workload, enable_preemption=True)
    assert rows == seed_trace(workload, enable_preemption=True)
    assert len(rows) == len(workload)
    # No preemption decision appears: the race victim was never eligible
    # (row layout: [time, kind, kernel, classes, sms, reason]).
    assert all(row[1] != "preempt" for row in rows)


@given(workload=st.lists(entry, min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_table1_matches_seed_with_first_run_profiling(workload):
    assert live_trace(workload, preload=False) == seed_trace(workload, preload=False)
