"""Edge-path tests for the DES engine: rarely-hit branches, nasty orders."""

import pytest

from repro.sim import Environment, SimulationError, Store
from repro.sim.engine import EmptySchedule


class TestRunUntilEdges:
    def test_run_until_already_processed_event_returns_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed("早い")
        env.run()  # processes ev
        assert ev.processed
        assert env.run(until=ev) == "早い"

    def test_run_until_already_processed_failed_event_raises(self):
        env = Environment()
        ev = env.event()
        ev.fail(KeyError("boom"))
        ev.defuse()
        env.run()
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_run_until_failing_process_raises_its_exception(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise OSError("disk")

        p = env.process(proc(env))
        with pytest.raises(OSError, match="disk"):
            env.run(until=p)

    def test_run_until_time_equal_to_now_is_noop(self):
        env = Environment()
        env.run(until=0)
        assert env.now == 0.0

    def test_clock_stops_exactly_at_until_before_events_there(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5)
        # simpy semantics: stop *before* processing events at `until`.
        assert fired == []
        env.run()
        assert fired == [5.0]


class TestRunUntilBoundaries:
    """run(until=...) at exact boundaries: now, the past, never-firing."""

    def test_run_until_now_after_advancing_is_noop(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5)
        assert env.now == 5.0 and fired == []  # stopped *before* t=5 events
        # until == now: returns immediately, still without processing the
        # pending t=5 event (simpy boundary semantics).
        assert env.run(until=env.now) is None
        assert env.now == 5.0
        assert fired == []
        # The event is intact and fires on the next real run.
        env.run(until=7)
        assert fired == [5.0]

    def test_run_until_in_the_past_raises(self):
        env = Environment()
        env.timeout(3)
        env.run()
        assert env.now == 3.0
        with pytest.raises(ValueError, match="before current time"):
            env.run(until=1.0)

    def test_run_until_untriggered_event_raises_on_empty_schedule(self):
        env = Environment()
        never = env.event()
        env.timeout(1)  # some unrelated work, then the queue drains
        with pytest.raises(SimulationError, match="ended before the awaited event"):
            env.run(until=never)
        # The queue really drained before giving up.
        assert env.now == 1.0
        assert not never.triggered

    def test_run_until_untriggered_event_on_already_empty_schedule(self):
        env = Environment()
        with pytest.raises(SimulationError, match="ended before the awaited event"):
            env.run(until=env.event())
        assert env.now == 0.0

    def test_run_until_time_beyond_last_event_reaches_that_time(self):
        env = Environment()
        env.timeout(2)
        assert env.run(until=10) is None
        # The numeric stop event itself is scheduled, so the clock lands
        # exactly on `until` even though no user event lives there.
        assert env.now == 10.0

    def test_run_until_already_processed_failed_event_raises_each_time(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("sticky"))
        ev.defuse()
        env.run()
        assert ev.processed
        # The stored failure is re-raised on every later await, not consumed.
        for _ in range(2):
            with pytest.raises(RuntimeError, match="sticky"):
                env.run(until=ev)


class TestEventEdges:
    def test_condition_over_prefailed_event(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("pre"))
        bad.defuse()
        env.run()  # bad is processed (and defused)

        def proc(env):
            try:
                yield env.all_of([bad, env.timeout(1)])
            except ValueError:
                return "caught"

        p = env.process(proc(env))
        env.run()
        assert p.value == "caught"

    def test_schedule_negative_delay_rejected(self):
        env = Environment()
        ev = env.event()
        ev._ok = True
        ev._value = None
        with pytest.raises(ValueError):
            env.schedule(ev, delay=-0.5)


class TestTimeoutPooling:
    """Every timeout is allocated fresh (the engine keeps no free list):
    each draws a new event id, carries its own value and is queued at
    ``now + delay``; a negative delay names the event."""

    def _churn(self, env, reps=50):
        def proc(env):
            for _ in range(reps):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()

    def test_event_ids_monotonic_across_pool_reuse(self):
        """Every timeout draws a fresh eid; the sequence never resets."""
        env = Environment()
        observed = []

        def proc(env):
            for _ in range(200):
                observed.append(env._eid)
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert observed == sorted(observed)
        assert len(set(observed)) == len(observed)
        # ids keep growing (plain int: no overflow, no wraparound)
        assert env._eid >= 200

    def test_pooled_timeout_carries_fresh_value(self):
        env = Environment()
        values = []

        def proc(env):
            for i in range(30):
                values.append((yield env.timeout(1.0, value=i)))

        env.process(proc(env))
        env.run()
        assert values == list(range(30))

    def test_peek_reports_pooled_timeout_schedule(self):
        env = Environment()
        self._churn(env, reps=5)
        assert env.peek() == float("inf")
        t = env.timeout(2.5)
        # A timeout made after a churn is queued at now + delay.
        assert env.peek() == env.now + 2.5
        env.run()
        assert t.processed

    def test_negative_delay_fresh_timeout_names_event(self):
        env = Environment()
        with pytest.raises(ValueError, match=r"while scheduling <Timeout delay=-1\.5>"):
            env.timeout(-1.5)

    def test_schedule_negative_delay_names_event(self):
        env = Environment()
        ev = env.event()
        ev._ok = True
        ev._value = None
        with pytest.raises(ValueError, match=r"while scheduling <Event"):
            env.schedule(ev, delay=-0.5)


class TestProcessEdges:
    def test_process_finishing_instantly(self):
        env = Environment()

        def proc(env):
            return 7
            yield  # pragma: no cover

        p = env.process(proc(env))
        env.run()
        assert p.value == 7


class TestMiscEdges:
    def test_empty_schedule_step(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_store_len(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            yield store.put(1)
            yield store.put(2)

        env.run(until=env.process(proc(env)))
        # Puts never wait: both items are held, in order.
        assert len(store.items) == 2
        assert store.items == [1, 2]
