"""Unit tests for the discrete-event environment and event primitives."""

import pytest

from repro.sim import Environment, Event, SimulationError
from repro.sim.engine import EmptySchedule


class TestClockAndTimeouts:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3.5)

        env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(3.5)

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def proc(env):
            for d in (1.0, 2.0, 0.5):
                yield env.timeout(d)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(3.5)]

    def test_zero_delay_timeout(self):
        env = Environment()

        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            got = yield env.timeout(1, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_run_until_time_stops_clock(self):
        env = Environment()

        def proc(env):
            while True:
                yield env.timeout(1)

        env.process(proc(env))
        env.run(until=10)
        assert env.now == pytest.approx(10)

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=5)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_step_on_empty_schedule(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == pytest.approx(2.0)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")


class TestEvents:
    def test_succeed_and_value(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        ev.succeed(42)
        assert ev.triggered and ev.ok
        env.run()
        assert ev.processed
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_propagates_to_run(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev.defuse()
        env.run()  # no raise

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "finished"

        p = env.process(proc(env))
        assert env.run(until=p) == "finished"
        assert env.now == pytest.approx(2)

    def test_run_until_never_triggered_event_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(until=ev)


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_waits_on_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(5)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        p = env.process(parent(env))
        env.run()
        assert p.value == (5.0, "child-result")

    def test_exception_in_process_fails_process(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise ValueError("inner")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_waiter_receives_child_exception(self):
        env = Environment()

        def child(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(parent(env))
        env.run()
        assert p.value == "caught inner"

    def test_yield_non_event_fails(self):
        env = Environment()

        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")

        def proc(env):
            yield env.timeout(3)
            value = yield ev  # processed long ago
            return value

        p = env.process(proc(env))
        env.run()
        assert p.value == "early"
        assert env.now == pytest.approx(3)

    def test_simultaneous_events_fifo_order(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(1)
            order.append(name)

        for name in "abc":
            env.process(proc(env, name))
        env.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(2, value="a")
            t2 = env.timeout(5, value="b")
            result = yield env.all_of([t1, t2])
            return (env.now, result.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == (5.0, ["a", "b"])

    def test_operator_composition(self):
        env = Environment()

        def proc(env):
            res = yield env.timeout(1, value=1) & env.timeout(2, value=2)
            return (env.now, sorted(res.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (2.0, [1, 2])

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc(env):
            res = yield env.all_of([])
            return (env.now, len(res))

        p = env.process(proc(env))
        env.run()
        assert p.value == (0.0, 0)

    def test_condition_failure_propagates(self):
        env = Environment()

        def failer(env):
            yield env.timeout(1)
            raise KeyError("inside")

        def waiter(env):
            try:
                yield env.all_of([env.process(failer(env)), env.timeout(10)])
            except KeyError:
                return "caught"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "caught"

    def test_cross_environment_events_rejected(self):
        env1, env2 = Environment(), Environment()
        t1 = env1.timeout(1)
        t2 = env2.timeout(1)
        with pytest.raises(SimulationError):
            env1.all_of([t1, t2])
