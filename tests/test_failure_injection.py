"""Failure-injection and edge-case tests across the stack."""

import pytest

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.cuda import VanillaCudaRuntime
from repro.cuda.errors import CudaContextDestroyed, CudaOutOfMemory
from repro.kernels import quasirandom, synthetic
from repro.mps import MpsRuntime
from repro.sim import Environment
from repro.slate import SlateRuntime


class TestOutOfMemory:
    def test_cuda_oom_raises_into_app(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("greedy")

        def app(env):
            with pytest.raises(CudaOutOfMemory):
                yield from session.malloc(13 * 1024**3)  # > 12 GiB device
            yield env.timeout(0)

        env.run(until=env.process(app(env)))

    def test_two_slate_clients_exhaust_shared_context(self):
        """Funneled contexts share the device heap: the second big tenant
        fails where per-process contexts would each have succeeded."""
        env = Environment()
        rt = SlateRuntime(env)
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            yield from s1.malloc(8 * 1024**3)
            with pytest.raises(CudaOutOfMemory):
                yield from s2.malloc(8 * 1024**3)
            # First tenant frees; second can now allocate.
            s1.close()
            yield from s2.malloc(8 * 1024**3)

        env.run(until=env.process(app(env)))
        assert rt.memory.used == 8 * 1024**3

    def test_oom_message_reports_fragmentation(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")

        def app(env):
            yield from session.malloc(6 * 1024**3)
            try:
                yield from session.malloc(7 * 1024**3)
            except CudaOutOfMemory as exc:
                assert "largest extent" in str(exc)

        env.run(until=env.process(app(env)))


class TestUseAfterClose:
    def test_cuda_session_context_destroyed(self):
        env = Environment()
        rt = VanillaCudaRuntime(env)
        session = rt.create_session("app")
        session.close()

        def app(env):
            with pytest.raises(CudaContextDestroyed):
                yield from session.malloc(1024)
            yield env.timeout(0)

        env.run(until=env.process(app(env)))

    def test_double_close_is_idempotent(self):
        env = Environment()
        for rt in (VanillaCudaRuntime(env), MpsRuntime(env), SlateRuntime(env)):
            session = rt.create_session("app")
            session.close()
            session.close()  # no raise


class TestDegenerateWorkloads:
    def test_single_block_kernel(self):
        """The smallest possible kernel flows through every runtime."""
        spec = synthetic(0.001, 0.001, name="tiny", num_blocks=1)
        for runtime_cls in (VanillaCudaRuntime, MpsRuntime, SlateRuntime):
            env = Environment()
            rt = runtime_cls(env)
            if hasattr(rt, "preload_profiles"):
                rt.preload_profiles([spec])
            session = rt.create_session("app")

            def app(env):
                ticket = yield from session.launch(spec)
                yield from session.synchronize()
                return ticket

            ticket = env.run(until=env.process(app(env)))
            assert ticket.counters.blocks_executed == pytest.approx(1.0)

    def test_synchronize_with_nothing_pending(self):
        env = Environment()
        rt = SlateRuntime(env)
        session = rt.create_session("app")

        def app(env):
            yield from session.synchronize()
            return env.now

        t = env.run(until=env.process(app(env)))
        assert t == pytest.approx(rt.costs.pipe_roundtrip)

    def test_zero_sm_device_rejected(self):
        bad = DeviceConfig(num_sms=1)
        env = Environment()
        rt = SlateRuntime(env, device=bad)
        # min_share would exceed half the device: heuristic partition is
        # infeasible, but solo scheduling still works.
        spec = quasirandom(num_blocks=480)
        rt.preload_profiles([spec])
        session = rt.create_session("app")

        def app(env):
            yield from session.launch(spec)
            yield from session.synchronize()

        env.run(until=env.process(app(env)))
