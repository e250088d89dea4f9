"""The indexed waiting queue: heap order must equal the old sort order.

The scheduler used to re-sort its waiting list on every submit; it now
keeps a priority heap keyed ``(-priority, seq)``.  Ticket sequence numbers
are unique, so heap drain order is *identical* to the stable sort — these
tests pin that equivalence, FIFO stability at scale, and that preemption
semantics survived the swap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, TITAN_XP
from repro.gpu.device import SimulatedGPU
from repro.gpu.rates import rates_cache_info, reset_rates_cache
from repro.kernels import blackscholes, quasirandom, transpose
from repro.sim import Environment
from repro.slate.profiler import offline_profile
from repro.slate.scheduler import SlateScheduler, SlateTicket, WaitingQueue


def make_scheduler(preload=()):
    env = Environment()
    gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    sched = SlateScheduler(env, gpu, TITAN_XP, CostModel())
    for spec in preload:
        sched.profiles.put(spec.name, offline_profile(spec))
    return env, sched


def ticket(env, spec, priority=0):
    return SlateTicket(
        spec=spec,
        profile_key=spec.name,
        done=env.event(),
        enqueued_at=env.now,
        priority=priority,
    )


class TestWaitingQueue:
    def test_fifo_within_priority_across_10k_submits(self):
        """Equal-priority tickets drain in exact submission order."""
        env = Environment()
        spec = quasirandom()
        queue = WaitingQueue()
        tickets = [ticket(env, spec) for _ in range(10_000)]
        for t in tickets:
            queue.push(t)
        drained = [queue.pop() for _ in range(len(queue))]
        assert drained == tickets

    def test_priority_beats_arrival_order(self):
        env = Environment()
        spec = quasirandom()
        low = ticket(env, spec, priority=0)
        high = ticket(env, spec, priority=5)
        queue = WaitingQueue()
        queue.push(low)
        queue.push(high)
        assert queue.peek() is high
        assert queue.pop() is high
        assert queue.pop() is low

    def test_iteration_is_nondestructive_and_sorted(self):
        env = Environment()
        spec = quasirandom()
        tickets = [ticket(env, spec, priority=p) for p in (1, 3, 2)]
        queue = WaitingQueue()
        for t in tickets:
            queue.push(t)
        seen = list(queue)
        assert [t.priority for t in seen] == [3, 2, 1]
        assert len(queue) == 3  # iteration drained nothing

    def test_empty_queue_semantics(self):
        queue = WaitingQueue()
        assert not queue
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.peek()
        with pytest.raises(IndexError):
            queue.pop()

    @given(
        priorities=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=0, max_size=200
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_heap_order_equals_stable_sort_order(self, priorities):
        """Property: drain order == the pre-PR ``sort(key=(-prio, seq))``."""
        env = Environment()
        spec = quasirandom()
        tickets = [ticket(env, spec, priority=p) for p in priorities]
        queue = WaitingQueue()
        for t in tickets:
            queue.push(t)
        expected = sorted(tickets, key=lambda t: (-t.priority, t.seq))
        assert [queue.pop() for _ in range(len(queue))] == expected


class TestSchedulerIntegration:
    def test_waiting_list_attribute_is_gone(self):
        """The unindexed list must not silently come back."""
        _, sched = make_scheduler()
        assert not hasattr(sched, "_waiting")
        assert isinstance(sched.waiting, WaitingQueue)

    def test_submit_order_preserved_under_contention(self):
        """Serialized tenants (all memory-heavy) run strictly FIFO."""
        bs, tr = blackscholes(), transpose()
        env, sched = make_scheduler(preload=[bs, tr])
        tickets = [
            ticket(env, spec)
            for spec in (bs, tr, bs, tr, bs, tr)
        ]
        for t in tickets:
            sched.submit(t)
        env.run()
        starts = [t.started_at for t in tickets]
        assert starts == sorted(starts)
        assert sched.corun_launches == 0

    def test_high_priority_preempts_and_queue_order_unchanged(self):
        """Preemption picks the highest-priority waiter, as before."""
        bs, tr = blackscholes(), transpose()
        env, sched = make_scheduler(preload=[bs, tr])
        sched.enable_preemption = True
        victim = ticket(env, bs)
        sched.submit(victim)
        env.run(until=1e-4)
        urgent = ticket(env, tr, priority=3)
        sched.submit(urgent)
        env.run(until=2e-4)
        assert sched.preemptions == 1
        assert urgent.started_at is not None
        env.run()

    def test_decisions_total_counts_every_decision(self):
        rg = quasirandom()
        env, sched = make_scheduler(preload=[rg])
        tickets = [ticket(env, rg) for _ in range(5)]
        for t in tickets:
            sched.submit(t)
        env.run()
        assert sched.decisions_total >= 5
        assert sched.solo_launches + sched.corun_launches == 5

    def test_thousand_launch_burst_drains_with_bounded_logs(self):
        """1k alternating BS/RG launches in one burst, logs bounded at 64:
        each launch is decided once, everything drains, and the repeated
        two-kernel mix is carried by the rate memo."""
        reset_rates_cache()
        bs, rg = blackscholes(), quasirandom()
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel(), rate_trace_limit=64)
        sched = SlateScheduler(env, gpu, TITAN_XP, CostModel(), log_limit=64)
        for spec in (bs, rg):
            sched.profiles.put(spec.name, offline_profile(spec))
        tickets = [ticket(env, (bs, rg)[i % 2]) for i in range(1000)]
        for t in tickets:
            sched.submit(t)
        env.run()
        assert sched.solo_launches + sched.corun_launches == 1000
        assert all(t.done.ok for t in tickets)
        assert sched.waiting_count == 0 and sched.running_count == 0
        assert sched.decisions_total >= 1000
        assert len(sched.decision_log) <= 64 and len(gpu.rate_trace) <= 64
        memo = rates_cache_info()
        assert memo["hits"] > memo["misses"]
