"""Tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_exclusive_access_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                log.append((name, "in", env.now))
                yield env.timeout(hold)
                log.append((name, "out", env.now))

        env.process(user(env, res, "a", 3))
        env.process(user(env, res, "b", 2))
        env.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 3.0),
            ("b", "in", 3.0),
            ("b", "out", 5.0),
        ]

    def test_capacity_two_allows_overlap(self):
        env = Environment()
        res = Resource(env, capacity=2)
        entered = []

        def user(env):
            with res.request() as req:
                yield req
                entered.append(env.now)
                yield env.timeout(5)

        for _ in range(3):
            env.process(user(env))
        env.run()
        assert entered == [0.0, 0.0, 5.0]

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env):
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=1)
        assert res.count == 1
        assert res.queue_length == 1

    def test_cancel_pending_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        got = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = res.request()
            yield env.timeout(1)
            req.cancel()  # withdraw before grant

        def patient(env):
            yield env.timeout(2)
            with res.request() as req:
                yield req
                got.append(env.now)

        env.process(holder(env))
        env.process(impatient(env))
        env.process(patient(env))
        env.run()
        # Patient acquires right when holder releases; impatient never held.
        assert got == [10.0]

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(env, name, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for i, name in enumerate("abcd"):
            env.process(user(env, name, i * 0.1))
        env.run()
        assert order == ["a", "b", "c", "d"]


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append((item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert [g[0] for g in got] == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (item, env.now)

        def producer(env):
            yield env.timeout(7)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == ("late", 7.0)

    def test_put_fires_at_once_and_getters_are_served_in_order(self):
        env = Environment()
        store = Store(env)
        log = []

        def producer(env):
            yield env.timeout(2)
            for item in "ab":
                yield store.put(item)
                log.append((f"{item}-in", env.now))

        def consumer(env, name):
            item = yield store.get()
            log.append((name, item, env.now))

        env.process(consumer(env, "first"))
        env.process(consumer(env, "second"))
        env.process(producer(env))
        env.run()
        # Each put fires before the getter it serves; the first getter to
        # arrive takes the first item.
        assert log == [
            ("a-in", 2.0),
            ("first", "a", 2.0),
            ("b-in", 2.0),
            ("second", "b", 2.0),
        ]
        assert store.items == []
