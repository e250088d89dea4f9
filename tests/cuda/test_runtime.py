"""Vanilla CUDA runtime tests: sessions, dispatch, time slicing."""

import pytest

from repro.config import CostModel
from repro.cuda import VanillaCudaRuntime
from repro.cuda.errors import CudaContextDestroyed
from repro.kernels import blackscholes, quasirandom, synthetic
from repro.sim import Environment


def small_kernel(name="K", blocks=960):
    return synthetic(0.02, 0.05, name=name, num_blocks=blocks, block_time=10e-6)


class TestSession:
    def test_malloc_and_free(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")

        def app(env):
            ptr = yield from session.malloc(1 << 20)
            assert rt.memory.used >= 1 << 20
            yield from session.free(ptr)
            assert session.context.allocated_bytes == 0

        env.run(until=env.process(app(env)))

    def test_memcpy_takes_pcie_time(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")
        nbytes = 1 << 30  # 1 GiB at 12 GB/s ~ 89 ms

        def app(env):
            yield from session.memcpy_h2d(nbytes)

        env.run(until=env.process(app(env)))
        expected = rt.pcie.transfer_time(nbytes)
        assert env.now == pytest.approx(expected, rel=1e-6)

    def test_launch_and_synchronize(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")

        def app(env):
            ticket = yield from session.launch(small_kernel())
            assert not ticket.done.triggered
            yield from session.synchronize()
            assert ticket.done.triggered
            return ticket.counters

        proc = env.process(app(env))
        counters = env.run(until=proc)
        assert counters.blocks_executed == pytest.approx(960)

    def test_close_frees_context(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")

        def app(env):
            yield from session.malloc(4096)
            session.close()

        env.run(until=env.process(app(env)))
        assert rt.memory.used == 0
        with pytest.raises(CudaContextDestroyed):
            session.context.alloc(1)

    def test_two_sessions_isolated_memory(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            yield from s1.malloc(4096)
            yield from s2.malloc(8192)
            s1.close()

        env.run(until=env.process(app(env)))
        assert s2.context.allocated_bytes == 8192
        assert rt.memory.used == 8192


class TestTimeSlicing:
    def test_kernels_from_two_processes_serialize(self):
        """The device runs one context's kernel at a time."""
        env = Environment()
        rt = VanillaCudaRuntime(env)
        s1, s2 = rt.create_session("p1"), rt.create_session("p2")
        spans = {}

        def app(env, session, name):
            ticket = yield from session.launch(small_kernel(name))
            yield from session.synchronize()
            spans[name] = (ticket.started_at, env.now)

        p1 = env.process(app(env, s1, "k1"))
        p2 = env.process(app(env, s2, "k2"))
        env.run(until=p1 & p2)
        (a0, a1), (b0, b1) = spans["k1"], spans["k2"]
        assert a1 <= b0 or b1 <= a0  # disjoint execution windows

    def test_context_switch_cost_charged(self):
        costs = CostModel(context_switch_overhead=5e-3)
        env = Environment()
        rt = VanillaCudaRuntime(env, costs=costs)
        s1, s2 = rt.create_session("p1"), rt.create_session("p2")

        def app(env, session):
            yield from session.launch(small_kernel())
            yield from session.synchronize()

        p1 = env.process(app(env, s1))
        p2 = env.process(app(env, s2))
        env.run(until=p1 & p2)
        assert rt.context_switches >= 1

        # Same two kernels from ONE process: no switch.
        env2 = Environment()
        rt2 = VanillaCudaRuntime(env2, costs=costs)
        s = rt2.create_session("only")

        def app_two(env):
            yield from s.launch(small_kernel())
            yield from s.launch(small_kernel())
            yield from s.synchronize()

        env2.run(until=env2.process(app_two(env2)))
        assert rt2.context_switches == 0

    def test_alternating_launches_interleave_fairly(self):
        """With both processes looping, each gets kernel-granular turns."""
        env = Environment()
        rt = VanillaCudaRuntime(env)
        order = []

        def app(env, session, name, reps):
            for _ in range(reps):
                ticket = yield from session.launch(small_kernel(name))
                yield from session.synchronize()
                order.append(name)

        s1, s2 = rt.create_session("p1"), rt.create_session("p2")
        p1 = env.process(app(env, s1, "A", 4))
        p2 = env.process(app(env, s2, "B", 4))
        env.run(until=p1 & p2)
        # Strict alternation A B A B ... given sync-per-launch loops.
        assert order[:2] in (["A", "B"], ["B", "A"])
        assert len(order) == 8
        assert order.count("A") == order.count("B") == 4

    def test_same_session_kernels_serialize(self):
        """Back-to-back launches of one session never overlap."""
        env = Environment()
        rt = VanillaCudaRuntime(env)
        s = rt.create_session("app")

        def app(env):
            t1 = yield from s.launch(small_kernel("k1"))
            t2 = yield from s.launch(small_kernel("k2"))
            yield from s.synchronize()
            return t1, t2

        t1, t2 = env.run(until=env.process(app(env)))
        assert t2.started_at >= t1.counters.end_time - 1e-9


class TestRealKernelsThroughRuntime:
    def test_blackscholes_app_flow(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("bs-app")
        spec = blackscholes(num_blocks=960, reps=3)

        def app(env):
            ptr = yield from session.malloc(spec.device_footprint)
            yield from session.memcpy_h2d(spec.h2d_bytes)
            for _ in range(spec.default_reps):
                yield from session.launch(spec)
                yield from session.synchronize()
            yield from session.memcpy_d2h(spec.d2h_bytes)
            yield from session.free(ptr)
            session.close()

        env.run(until=env.process(app(env)))
        assert env.now > 0
        assert rt.memory.used == 0

    def test_rg_kernel_counters_present(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("rg")

        def app(env):
            ticket = yield from session.launch(quasirandom(num_blocks=960))
            yield from session.synchronize()
            return ticket

        ticket = env.run(until=env.process(app(env)))
        assert ticket.counters is not None
        assert ticket.started_at >= ticket.enqueued_at
