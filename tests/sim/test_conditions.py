"""Condition-event (AllOf) edge cases.

Covers the constructor-time evaluation paths: empty iterables, members that
are already triggered or already processed at creation time, and failed
members (which the condition must defuse before propagating the failure).
"""

import pytest

from repro.sim import Environment
from repro.sim.events import ConditionValue


class TestEmptyConditions:
    def test_empty_all_of_triggers_immediately(self):
        env = Environment()

        def proc(env):
            return (yield env.all_of([]))

        p = env.process(proc(env))
        env.run()
        assert isinstance(p.value, ConditionValue)
        assert len(p.value) == 0
        assert env.now == 0.0

    def test_empty_condition_from_generator_argument(self):
        env = Environment()
        cond = env.all_of(iter([]))
        assert cond.triggered
        env.run()
        assert cond.processed


class TestAlreadyTriggeredMembers:
    def test_all_of_mixing_processed_and_pending_members(self):
        env = Environment()
        first = env.event()
        first.succeed(1)
        env.run()

        def proc(env):
            return (yield env.all_of([first, env.timeout(3, value=2)]))

        p = env.process(proc(env))
        env.run()
        assert env.now == 3.0
        assert p.value.values() == [1, 2]

    def test_condition_value_preserves_member_order(self):
        env = Environment()
        b = env.timeout(2, value="b")
        a = env.timeout(1, value="a")

        def proc(env):
            return (yield env.all_of([b, a]))

        p = env.process(proc(env))
        env.run()
        # Order follows the iterable passed in, not completion order.
        assert p.value.keys() == [b, a]


class TestFailedMembers:
    def test_all_of_fails_fast_on_first_member_failure(self):
        env = Environment()
        bad = env.event()

        def failer(env):
            yield env.timeout(1)
            bad.fail(ValueError("early failure"))

        env.process(failer(env))

        def waiter(env):
            try:
                yield env.all_of([env.timeout(5, value="slow"), bad])
            except ValueError:
                return env.now

        p = env.process(waiter(env))
        env.run()
        # AllOf failed at t=1, without waiting for the slow member.
        assert p.value == 1.0

    def test_operator_composition_matches_constructors(self):
        env = Environment()

        def proc_all(env):
            return (yield env.timeout(1, value="c") & env.timeout(2, value="d"))

        p = env.process(proc_all(env))
        env.run()
        assert p.value.values() == ["c", "d"]
