"""Tests for Store (the PCIe link's turn queue is tested with the link,
in ``tests/cuda/test_module_pcie.py``)."""

from repro.sim import Environment, Store


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
