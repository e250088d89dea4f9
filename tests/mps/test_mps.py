"""MPS baseline tests: context funneling, relay cost, leftover policy."""

import pytest

from repro.config import CostModel
from repro.cuda import VanillaCudaRuntime
from repro.kernels import synthetic
from repro.mps import MpsRuntime
from repro.sim import Environment


def small_kernel(name="K", blocks=960, block_time=10e-6):
    return synthetic(0.02, 0.05, name=name, num_blocks=blocks, block_time=block_time)


class TestContextFunneling:
    def test_all_clients_share_server_context(self):
        env = Environment()
        rt = MpsRuntime(env)
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            yield from s1.malloc(4096)
            yield from s2.malloc(8192)

        env.run(until=env.process(app(env)))
        assert rt.server_context.allocated_bytes == 4096 + 8192

    def test_close_frees_only_own_pointers(self):
        env = Environment()
        rt = MpsRuntime(env)
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            yield from s1.malloc(4096)
            yield from s2.malloc(8192)
            s1.close()

        env.run(until=env.process(app(env)))
        assert rt.server_context.allocated_bytes == 8192

    def test_relay_cost_charged_per_call(self):
        costs = CostModel(mps_relay_overhead=1e-3)
        env = Environment()
        rt = MpsRuntime(env, costs=costs)
        s = rt.create_session("a")

        def app(env):
            yield from s.malloc(4096)
            yield from s.malloc(4096)

        env.run(until=env.process(app(env)))
        assert rt.relayed_calls == 2
        assert env.now == pytest.approx(2e-3)


class TestLeftoverPolicy:
    def run_pair(self, runtime_cls, spec_a, spec_b):
        env = Environment()
        rt = runtime_cls(env)
        results = {}

        def app(env, name, spec):
            session = rt.create_session(name)
            ticket = yield from session.launch(spec)
            yield from session.synchronize()
            results[name] = (ticket.started_at, env.now)

        pa = env.process(app(env, "a", spec_a))
        pb = env.process(app(env, "b", spec_b))
        env.run(until=pa & pb)
        return results, rt

    def test_second_kernel_admitted_at_tail(self):
        # 5000 blocks over 480 slots: a ragged final wave long enough to
        # observe the leftover overlap window.
        spec = small_kernel(blocks=5000, block_time=50e-6)
        results, rt = self.run_pair(MpsRuntime, spec, spec)
        (a0, a1), (b0, b1) = results["a"], results["b"]
        first0, first1 = min((a0, a1), (b0, b1)), max((a0, a1), (b0, b1))
        # The second kernel starts before the first finishes (tail overlap)
        # but after most of the first has executed.
        assert first1[0] < first0[1]
        assert first1[0] > first0[1] - 0.25 * (first0[1] - first0[0])
        assert rt.tail_overlaps >= 1

    def test_mps_beats_cuda_via_no_context_switches(self):
        """For alternating kernel loops MPS avoids per-kernel switch costs."""
        costs = CostModel(context_switch_overhead=2e-3)

        def run(runtime_cls):
            env = Environment()
            rt = runtime_cls(env, costs=costs)
            procs = []

            def app(env, name):
                session = rt.create_session(name)
                for _ in range(5):
                    yield from session.launch(small_kernel(name))
                    yield from session.synchronize()

            for name in ("a", "b"):
                procs.append(env.process(app(env, name)))
            env.run(until=procs[0] & procs[1])
            return env.now

        t_mps = run(MpsRuntime)
        t_cuda = run(VanillaCudaRuntime)
        assert t_mps < t_cuda

    def test_mps_solo_slightly_slower_than_cuda(self):
        """Fig. 6: MPS's relay makes solo application time a bit worse."""

        def run(runtime_cls):
            env = Environment()
            rt = runtime_cls(env)
            session = rt.create_session("solo")

            def app(env):
                yield from session.malloc(1 << 20)
                yield from session.memcpy_h2d(1 << 20)
                for _ in range(10):
                    yield from session.launch(small_kernel(block_time=200e-6))
                    yield from session.synchronize()
                yield from session.memcpy_d2h(1 << 20)

            env.run(until=env.process(app(env)))
            return env.now

        t_mps = run(MpsRuntime)
        t_cuda = run(VanillaCudaRuntime)
        assert t_mps > t_cuda
        assert t_mps < t_cuda * 1.25  # "slightly larger"


class TestLeftoverSmallKernels:
    """Real MPS co-runs kernels whose grids underfill the device."""

    def test_small_grids_corun_under_mps(self):
        env = Environment()
        rt = MpsRuntime(env)
        # 240 blocks on a 480-slot device: half the slots are leftover.
        spec = small_kernel(blocks=240, block_time=200e-6)
        spans = {}

        def app(env, name):
            session = rt.create_session(name)
            ticket = yield from session.launch(spec)
            yield from session.synchronize()
            spans[name] = (ticket.started_at, env.now)

        pa = env.process(app(env, "a"))
        pb = env.process(app(env, "b"))
        env.run(until=pa & pb)
        (a0, a1), (b0, b1) = spans["a"], spans["b"]
        assert max(a0, b0) < min(a1, b1)  # overlapping windows
        assert rt.leftover_coruns >= 1

    def test_device_filling_grids_still_serialize(self):
        env = Environment()
        rt = MpsRuntime(env)
        spec = small_kernel(blocks=4800, block_time=50e-6)  # 10 full waves
        spans = {}

        def app(env, name):
            session = rt.create_session(name)
            ticket = yield from session.launch(spec)
            yield from session.synchronize()
            spans[name] = (ticket.started_at, env.now)

        pa = env.process(app(env, "a"))
        pb = env.process(app(env, "b"))
        env.run(until=pa & pb)
        (a0, a1), (b0, b1) = spans["a"], spans["b"]
        first_end = min(a1, b1)
        second_start = max(a0, b0)
        # The second kernel starts only in the first one's drain tail.
        duration = first_end - min(a0, b0)
        assert second_start > first_end - 0.25 * duration


class TestCompletionCallback:
    def test_pair_of_twenty_launches_event_budget_and_app_times(self):
        """A launch finishes through a ``done`` callback, not a spawned
        waiter process (which cost an initialisation and an exit event
        each: 544 events here before).  Every simulated number stays put."""
        from repro.workloads.harness import app_for, run_pair

        results, runtime = run_pair(
            "MPS", app_for("BS", reps=20), app_for("RG", reps=20)
        )
        assert runtime.env.stats.events_processed == 464
        assert results["BS"].app_time == 0.1130699379956246
        assert results["RG"].app_time == 0.1157364395605014
        assert results["BS"].launches == results["RG"].launches == 20
        assert runtime.tail_overlaps == 20

    def test_cuda_pair_of_twenty_launches_event_budget_and_app_times(self):
        """The CUDA baseline shares the dispatch queue and the session API
        with MPS: its event count and app times are pinned the same way."""
        from repro.workloads.harness import app_for, run_pair

        results, runtime = run_pair(
            "CUDA", app_for("BS", reps=20), app_for("RG", reps=20)
        )
        assert runtime.env.stats.events_processed == 375
        assert results["BS"].app_time == 0.119165592691802
        assert results["RG"].app_time == 0.12200737824694682
        assert results["BS"].launches == results["RG"].launches == 20
        assert runtime.context_switches == 39
