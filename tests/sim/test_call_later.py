"""``Environment.call_later``: a timer without an event.

The device's and the scheduler's internal timers use it in place of
``env.timeout(d).callbacks.append(lambda _e: fn(*args))``.  The swap is
only safe if a call is queued exactly where that timeout would be, so the
ordering property below runs the same timer tree twice, once with every
timer a ``Timeout`` and once with a mix, and requires the same firing
order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TITAN_XP, CostModel
from repro.gpu.device import KernelWork, SimulatedGPU
from repro.gpu.occupancy import BlockResources
from repro.sim import Environment
from repro.sim.engine import EmptySchedule

#: A few delays, zero included, so timers collide on one instant and the
#: same-timestamp lane is exercised.
DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.5))

#: A timer: its delay and the timers it arms when it fires (two levels).
TIMER = st.tuples(DELAYS, st.lists(st.tuples(DELAYS, st.just(())), max_size=3))


def _run_tree(timers, process_delays, as_call):
    """Fire ``timers`` beside a process; return the firing log.

    ``as_call(label)`` says whether the timer numbered ``label`` (in
    arming order) is a ``call_later`` call or a ``Timeout`` callback.
    Each fired timer also triggers a fresh event (delay-0 lane) whose
    callback logs too, so calls interleave with lane events.
    """
    env = Environment()
    log = []
    labels = iter(range(10**6))

    def fire(label, children):
        log.append((label, env.now))
        marker = env.event()
        marker.callbacks.append(lambda _e: log.append((f"e{label}", env.now)))
        marker.succeed()
        for delay, grandchildren in children:
            arm(delay, grandchildren)

    def arm(delay, children):
        label = next(labels)
        if as_call(label):
            env.call_later(delay, fire, label, children)
        else:
            env.timeout(delay).callbacks.append(
                lambda _e: fire(label, children)
            )

    def proc(env):
        for i, delay in enumerate(process_delays):
            yield env.timeout(delay)
            log.append((f"p{i}", env.now))

    env.process(proc(env))
    for delay, children in timers:
        arm(delay, children)
    env.run()
    return log, env.stats.events_processed


@given(
    timers=st.lists(TIMER, min_size=1, max_size=8),
    process_delays=st.lists(DELAYS, max_size=4),
    mask=st.lists(st.booleans(), min_size=40, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_calls_interleave_with_timeouts_in_all_timeout_order(
    timers, process_delays, mask
):
    reference, ref_events = _run_tree(timers, process_delays, lambda _label: False)
    mixed, mixed_events = _run_tree(
        timers, process_delays, lambda label: label < len(mask) and mask[label]
    )
    assert mixed == reference
    # A call counts as the event its timeout was.
    assert mixed_events == ref_events


def test_zero_delay_joins_the_same_timestamp_lane():
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "heap")
    eid = env._eid

    def at_one():
        # Heap-at-now first, then the lane in trigger order.
        first = env.event()
        first.callbacks.append(lambda _e: order.append("event-1"))
        first.succeed()
        env.call_later(0, order.append, "call")
        assert env._eid == eid + 1, "a zero-delay call draws no event id"
        assert len(env._fifo) == 2
        second = env.event()
        second.callbacks.append(lambda _e: order.append("event-2"))
        second.succeed()

    env.call_later(1.0, at_one)
    env.run()
    assert order == ["heap", "event-1", "call", "event-2"]
    assert env.now == 1.0


def test_negative_delay_raises_and_queues_nothing():
    env = Environment()
    with pytest.raises(ValueError, match="negative delay -0.5"):
        env.call_later(-0.5, print)
    assert env.peek() == float("inf")
    assert env._eid == 0


def test_step_runs_one_call_with_the_processing_flag_set():
    env = Environment()
    seen = []
    env.call_later(1.0, lambda: seen.append(("a", env.now, env._processing)))
    env.call_later(2.0, lambda: seen.append(("b", env.now, env._processing)))
    env.step()
    assert seen == [("a", 1.0, True)]
    assert env.peek() == 2.0
    assert env.stats.events_processed == 1
    assert not env._processing
    env.step()
    assert seen[-1] == ("b", 2.0, True)
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_processed_counts_calls():
    env = Environment()
    for delay in (0.0, 1.0, 1.0):
        env.call_later(delay, lambda: None)
    env.timeout(3.0)
    env.run()
    assert env.stats.events_processed == 4
    assert env.now == 3.0


def test_an_exception_in_a_call_propagates_out_of_run():
    env = Environment()

    def boom():
        raise RuntimeError("call failed")

    env.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="call failed"):
        env.run()


def _work(name):
    return KernelWork(
        name=name,
        num_blocks=48_000,
        block=BlockResources(threads_per_block=128, registers_per_thread=32),
        flops_per_block=2e6,
        bytes_per_block=0.0,
    )


def test_a_call_that_mutates_the_device_inside_run_is_epoch_batched():
    """Two launches from one call mark two mutations and flush one epoch,
    as from an event callback; the same launches made outside the run
    loop recompute inline, unbatched."""
    env = Environment()
    gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    launched = []
    env.call_later(
        1e-3,
        lambda: launched.extend(
            gpu.launch(_work(name), sm_ids=gpu.sm_range(lo, lo + 14))
            for name, lo in (("a", 0), ("b", 15))
        ),
    )
    env.run(until=2e-3)
    assert len(launched) == 2
    assert env.stats.epoch_marks == 2
    assert env.stats.epoch_flushes == 1

    direct_env = Environment()
    direct = SimulatedGPU(direct_env, TITAN_XP, CostModel())
    direct.launch(_work("a"), sm_ids=direct.sm_range(0, 14))
    direct.launch(_work("b"), sm_ids=direct.sm_range(15, 29))
    assert direct_env.stats.epoch_marks == 0
    assert direct_env.stats.epoch_flushes == 0
    assert direct_env.stats.rate_recomputes == 2
