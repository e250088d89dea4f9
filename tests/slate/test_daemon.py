"""Daemon/session integration tests: context funneling, IPC, injection."""

import pytest

from repro.kernels import blackscholes, quasirandom, sgemm
from repro.sim import Environment
from repro.slate import SlateRuntime


class TestSessionApi:
    def test_malloc_maps_shared_buffer(self):
        env = Environment()
        rt = SlateRuntime(env)
        s = rt.create_session("app")

        def app(env):
            ptr = yield from s.malloc(1 << 20)
            assert ptr in s.buffer_map.values()
            assert rt.server_context.allocated_bytes >= 1 << 20
            yield from s.free(ptr)
            assert not s.buffer_map

        env.run(until=env.process(app(env)))

    def test_two_clients_funnel_into_one_context(self):
        env = Environment()
        rt = SlateRuntime(env)
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            yield from s1.malloc(4096)
            yield from s2.malloc(8192)

        env.run(until=env.process(app(env)))
        assert rt.server_context.allocated_bytes == 4096 + 8192
        s1.close()
        assert rt.server_context.allocated_bytes == 8192

    def test_pipe_costs_accumulate(self):
        env = Environment()
        rt = SlateRuntime(env)
        s = rt.create_session("app")

        def app(env):
            ptr = yield from s.malloc(4096)
            yield from s.memcpy_h2d(4096)
            yield from s.free(ptr)

        env.run(until=env.process(app(env)))
        assert s.pipe.round_trips == 3
        assert s.buffers.handoffs == 2
        assert s.comm_time == pytest.approx(
            3 * rt.costs.pipe_roundtrip + 2 * rt.costs.shared_buffer_overhead
        )

    def test_memcpy_charges_no_payload_copy(self):
        """Shared buffers: doubling the payload only adds PCIe time."""
        env = Environment()
        rt = SlateRuntime(env)
        s = rt.create_session("app")
        times = []

        def app(env):
            for nbytes in (1 << 20, 2 << 20):
                t0 = env.now
                yield from s.memcpy_h2d(nbytes)
                times.append(env.now - t0)

        env.run(until=env.process(app(env)))
        fixed = rt.costs.pipe_roundtrip + rt.costs.shared_buffer_overhead
        pcie_delta = (1 << 20) / rt.pcie.host.pcie_bandwidth
        assert times[1] - times[0] == pytest.approx(pcie_delta, rel=1e-6)
        assert times[0] > fixed


class TestInjectionPath:
    def test_first_launch_compiles_then_caches(self):
        env = Environment()
        rt = SlateRuntime(env)
        rt.preload_profiles([quasirandom()])
        s = rt.create_session("app")
        spec = quasirandom(num_blocks=960)

        def app(env):
            yield from s.launch(spec)
            yield from s.synchronize()
            first_compile = s.compile_time
            yield from s.launch(spec)
            yield from s.synchronize()
            return first_compile, s.compile_time

        first, total = env.run(until=env.process(app(env)))
        assert first == pytest.approx(
            rt.costs.code_injection_time + rt.costs.nvrtc_compile_time
        )
        assert total == pytest.approx(first)  # second launch: cache hit
        assert rt.compiler.compile_count == 1

    def test_injected_source_stored(self):
        env = Environment()
        rt = SlateRuntime(env)
        rt.preload_profiles([sgemm()])
        s = rt.create_session("app")
        spec = sgemm(tiles=10)

        def app(env):
            yield from s.launch(spec)
            yield from s.synchronize()

        env.run(until=env.process(app(env)))
        src = rt.injected_sources["MM"]
        assert "atomicAdd(&slateIdx, SLATE_ITERS)" in src
        assert "sm_low" in src
        # MM is the 2D-grid kernel; its injected source reconstructs y.
        assert "slate_blockID.y" in src


class TestEndToEnd:
    def test_pair_coruns_through_full_stack(self):
        env = Environment()
        rt = SlateRuntime(env)
        bs, rg = blackscholes(), quasirandom()
        rt.preload_profiles([bs, rg])
        done = {}

        def app(env, name, spec, reps):
            s = rt.create_session(name)
            for _ in range(reps):
                yield from s.launch(spec)
                yield from s.synchronize()
            done[name] = env.now
            s.close()

        pa = env.process(app(env, "bs", bs, 5))
        pb = env.process(app(env, "rg", rg, 5))
        env.run(until=pa & pb)
        assert rt.scheduler.corun_launches > 0
        assert done["bs"] > 0 and done["rg"] > 0

    def test_first_run_profiling_enables_corun_later(self):
        """Without preloading, profiles build up and corun kicks in."""
        env = Environment()
        rt = SlateRuntime(env)
        bs, rg = blackscholes(), quasirandom()

        def app(env, name, spec, reps):
            s = rt.create_session(name)
            for _ in range(reps):
                yield from s.launch(spec)
                yield from s.synchronize()
            s.close()

        pa = env.process(app(env, "bs", bs, 4))
        pb = env.process(app(env, "rg", rg, 4))
        env.run(until=pa & pb)
        assert rt.scheduler.solo_launches >= 2  # the profiling runs
        assert rt.scheduler.corun_launches >= 1  # later launches corun
        assert "BS" in rt.profiles and "RG" in rt.profiles


class TestSynchronize:
    def test_waits_for_every_outstanding_launch(self):
        """Two launches in flight: synchronize returns only once both
        are done (one ``all_of``), then forgets them."""
        env = Environment()
        rt = SlateRuntime(env)
        bs, rg = blackscholes(), quasirandom()
        rt.preload_profiles([bs, rg])
        s = rt.create_session("app")
        seen = {}

        def app(env):
            first = yield from s.launch(bs)
            second = yield from s.launch(rg)
            yield from s.synchronize()
            seen["at"] = env.now
            seen["tickets"] = first, second

        env.run(until=env.process(app(env)))
        first, second = seen["tickets"]
        assert first.done.processed and second.done.processed
        assert seen["at"] == max(first.counters.end_time, second.counters.end_time)
        assert first.counters.end_time != second.counters.end_time
        assert s._pending == []

    def test_pair_of_sessions_event_budget(self):
        """What the engine pays for a pair driven through the Slate API,
        pinned exactly: two sessions launch 10 kernels each with a
        synchronize after every launch.  A launch costs its pipe and
        decision timers, the device's completion and tail timers and
        ``done``, the ticket's ``done`` and the synchronize's pipe timer;
        a completion that leaves its partner on part of the device arms
        one grace timer.  A co-runner's arrival or exit re-arms a kernel's
        completion timer only when it changes that kernel's rate.
        Nothing waits on ``tail_started``, so it takes no queue trip, and
        synchronize waits on its one ticket without an ``all_of``."""
        env = Environment()
        rt = SlateRuntime(env)
        bs, rg = blackscholes(), quasirandom()
        rt.preload_profiles([bs, rg])

        def app(env, name, spec):
            s = rt.create_session(name)
            for _ in range(10):
                yield from s.launch(spec)
                yield from s.synchronize()

        env.process(app(env, "bs", bs))
        env.process(app(env, "rg", rg))
        env.run()
        sched = rt.scheduler
        assert (sched.solo_launches, sched.corun_launches) == (5, 15)
        assert env.now == 0.043344996188956736
        assert env.stats.events_processed == 174


class TestLaunchValidation:
    def test_task_size_below_one_raises_at_the_call(self):
        """A bad size fails the launching session at once; the scheduler
        never sees the ticket, so the running kernel completes and no
        counter moves for it."""
        env = Environment()
        rt = SlateRuntime(env)
        mm = sgemm()
        rt.preload_profiles([mm])
        good, bad = rt.create_session("good"), rt.create_session("bad")
        raised = []

        def first(env):
            ticket = yield from good.launch(mm)
            yield from good.synchronize()
            return ticket

        def second(env):
            yield env.timeout(0.1e-3)
            with pytest.raises(ValueError, match="task_size"):
                yield from bad.launch(mm, task_size=0)
            raised.append(env.now)

        proc = env.process(first(env))
        env.process(second(env))
        env.run()
        assert raised == [0.1e-3]
        assert proc.value.done.ok and proc.value.counters is not None
        assert bad._pending == []
        sched = rt.scheduler
        assert (sched.decisions_total, sched.solo_launches, sched.corun_launches) == (
            1, 1, 0
        )
        assert sched.waiting_count == 0 and sched.running_count == 0


class TestArgumentTranslation:
    """The daemon's hash table: client addresses -> GPU pointers (§IV-A1)."""

    def _session(self):
        env = Environment()
        rt = SlateRuntime(env)
        rt.preload_profiles([quasirandom()])
        return env, rt, rt.create_session("app")

    def test_client_address_translates(self):
        env, rt, s = self._session()

        def app(env):
            ptr = yield from s.malloc(4096)
            addr = next(iter(s.buffer_map))
            assert s.device_pointer(addr) is ptr
            translated = s.translate_args([addr, ptr])
            assert translated == [ptr, ptr]

        env.run(until=env.process(app(env)))

    def test_unmapped_address_rejected(self):
        from repro.slate.daemon import SlateArgumentError

        env, rt, s = self._session()

        def app(env):
            yield from s.malloc(4096)
            with pytest.raises(SlateArgumentError, match="not a mapped"):
                s.device_pointer(0xDEAD)

        env.run(until=env.process(app(env)))

    def test_freed_pointer_rejected_at_launch(self):
        from repro.slate.daemon import SlateArgumentError

        env, rt, s = self._session()

        def app(env):
            ptr = yield from s.malloc(4096)
            yield from s.free(ptr)
            with pytest.raises(SlateArgumentError, match="freed or foreign"):
                yield from s.launch(quasirandom(num_blocks=960), args=[ptr])

        env.run(until=env.process(app(env)))

    def test_foreign_pointer_rejected(self):
        from repro.slate.daemon import SlateArgumentError

        env = Environment()
        rt = SlateRuntime(env)
        rt.preload_profiles([quasirandom()])
        s1, s2 = rt.create_session("a"), rt.create_session("b")

        def app(env):
            ptr = yield from s1.malloc(4096)
            with pytest.raises(SlateArgumentError, match="foreign"):
                s2.translate_args([ptr])

        env.run(until=env.process(app(env)))

    def test_non_pointer_argument_rejected(self):
        from repro.slate.daemon import SlateArgumentError

        env, rt, s = self._session()
        with pytest.raises(SlateArgumentError, match="neither"):
            s.translate_args([3.14])

    def test_launch_with_valid_args(self):
        env, rt, s = self._session()

        def app(env):
            ptr = yield from s.malloc(4096)
            ticket = yield from s.launch(quasirandom(num_blocks=960), args=[ptr])
            yield from s.synchronize()
            return ticket

        ticket = env.run(until=env.process(app(env)))
        assert ticket.counters is not None
