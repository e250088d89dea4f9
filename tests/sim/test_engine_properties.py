"""Property-based tests (hypothesis) for the DES engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_clock_is_monotonic_over_arbitrary_timeouts(delays):
    """The simulated clock never moves backwards."""
    env = Environment()
    times = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda _ev: times.append(env.now))
    env.run()
    assert len(times) == len(delays)
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30))
def test_simultaneous_and_ordered_events_fire_in_schedule_order(delays):
    """Events at equal timestamps are processed in scheduling (FIFO) order."""
    env = Environment()
    fired = []

    def proc(env, idx, delay):
        yield env.timeout(delay)
        fired.append((env.now, idx))

    for idx, d in enumerate(delays):
        env.process(proc(env, idx, d))
    env.run()
    # Sort stability: for equal times, index order must be preserved.
    assert fired == sorted(fired, key=lambda t: (t[0], t[1]))
    assert len(fired) == len(delays)


@given(
    seed_delays=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=10, allow_nan=False),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_identical_programs_produce_identical_timelines(seed_delays):
    """Two environments running the same program agree event-for-event."""

    def build():
        env = Environment()
        timeline = []

        def worker(env, idx, delay, reps):
            for _ in range(reps):
                timeout = env.timeout(delay)
                timeout.callbacks.append(
                    lambda _ev: timeline.append((env.now, "tick", idx))
                )
                yield timeout

        for idx, (delay, reps) in enumerate(seed_delays):
            proc = env.process(worker(env, idx, delay, reps))
            proc.callbacks.append(
                lambda _ev, idx=idx: timeline.append((env.now, "done", idx))
            )
        env.run()
        return timeline, env.now

    first, second = build(), build()
    assert first == second
    assert len(first[0]) == sum(reps for _, reps in seed_delays) + len(seed_delays)


@given(
    n_waiters=st.integers(min_value=1, max_value=20),
    hold=st.floats(min_value=0.01, max_value=5, allow_nan=False),
    capacity=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50)
def test_resource_work_conservation(n_waiters, hold, capacity):
    """N equal jobs through a k-server take ceil(N/k) * hold total time."""
    import math

    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=capacity)

    def job(env):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    for _ in range(n_waiters):
        env.process(job(env))
    env.run()
    expected = math.ceil(n_waiters / capacity) * hold
    assert abs(env.now - expected) < 1e-9 * max(1.0, expected)


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_fifo_for_any_items(items):
    from repro.sim import Store

    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items
