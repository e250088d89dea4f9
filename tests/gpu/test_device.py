"""Tests for the epoch-fluid GPU executor."""

import dataclasses
import json
import math

import pytest

from repro.config import TITAN_XP, CostModel
from repro.gpu.cache import LocalityModel
from repro.gpu.device import ExecState, ExecutionMode, KernelWork, SimulatedGPU
from repro.gpu.occupancy import BlockResources
from repro.sim import Environment


def make_gpu(**cost_overrides):
    env = Environment()
    costs = CostModel(**cost_overrides) if cost_overrides else CostModel()
    return env, SimulatedGPU(env, TITAN_XP, costs)


def compute_work(name="compute", num_blocks=3000, flops=2e6, **kw):
    """A purely compute-bound kernel."""
    defaults = dict(
        block=BlockResources(threads_per_block=128, registers_per_thread=32),
        flops_per_block=flops,
        bytes_per_block=0.0,
        time_cv=0.0,
    )
    defaults.update(kw)
    return KernelWork(name=name, num_blocks=num_blocks, **defaults)


def memory_work(name="memory", num_blocks=3000, bytes_pb=2e6, **kw):
    """A purely memory-bound streaming kernel (no reuse)."""
    defaults = dict(
        block=BlockResources(threads_per_block=128, registers_per_thread=32),
        flops_per_block=0.0,
        bytes_per_block=bytes_pb,
        time_cv=0.0,
    )
    defaults.update(kw)
    return KernelWork(name=name, num_blocks=num_blocks, **defaults)


class TestSoloExecution:
    def test_all_blocks_executed(self):
        env, gpu = make_gpu()
        work = compute_work(num_blocks=1234)
        handle = gpu.launch(work)
        counters = env.run(until=handle.done)
        assert counters.blocks_executed == pytest.approx(1234, rel=1e-6)
        assert counters.flops == pytest.approx(1234 * work.flops_per_block, rel=1e-6)

    def test_compute_bound_time_matches_roofline(self):
        env, gpu = make_gpu(block_launch_overhead=0.0)
        work = compute_work(num_blocks=4800, flops=4e6, time_cv=0.0)
        handle = gpu.launch(work)
        counters = env.run(until=handle.done)
        # 128-thread blocks, 32 regs -> 16 blocks/SM -> 480 resident.
        block_time = 4e6 / (TITAN_XP.sm_flops / 16)
        # 4800 blocks over 480 resident slots: exactly 10 full waves.
        expected = 4800 * block_time / 480
        assert counters.elapsed == pytest.approx(expected, rel=0.01)

    def test_memory_bound_solo_saturates_dram(self):
        env, gpu = make_gpu(block_launch_overhead=0.0)
        # Enough issue capability on 30 SMs to exceed DRAM peak.
        work = memory_work(num_blocks=20000, bytes_pb=4e6)
        handle = gpu.launch(work)
        counters = env.run(until=handle.done)
        # Achieved bandwidth approaches the DRAM peak (tail excluded).
        assert counters.l2_throughput > 0.9 * TITAN_XP.dram_bandwidth
        assert counters.l2_throughput <= 1.01 * TITAN_XP.dram_bandwidth
        assert counters.mem_throttle_fraction > 0.3

    def test_bandwidth_scales_with_sm_count_until_saturation(self):
        """Fig. 1 shape: BW rises ~linearly then flattens at ~9 SMs."""
        results = {}
        for n_sms in (1, 3, 6, 9, 12, 20, 30):
            env, gpu = make_gpu(block_launch_overhead=0.0)
            work = memory_work(num_blocks=20000, bytes_pb=4e6)
            handle = gpu.launch(work, sm_ids=range(n_sms))
            counters = env.run(until=handle.done)
            results[n_sms] = counters.l2_throughput
        # Linear region: 3 SMs ~ 3x of 1 SM.
        assert results[3] == pytest.approx(3 * results[1], rel=0.05)
        # Saturation: 9 SMs within 5% of 30 SMs.
        assert results[9] > 0.95 * results[30]
        # And well above 6 SMs.
        assert results[9] > 1.2 * results[6]

    def test_latency_floor_binds(self):
        env, gpu = make_gpu(block_launch_overhead=0.0)
        work = compute_work(num_blocks=480, flops=1.0, min_block_time=1e-3)
        handle = gpu.launch(work)
        counters = env.run(until=handle.done)
        # 480 blocks on 480 resident slots: one wave of 1 ms.
        assert counters.elapsed == pytest.approx(1e-3, rel=0.05)

    def test_small_grid_limits_parallelism(self):
        env, gpu = make_gpu(block_launch_overhead=0.0)
        few = compute_work(num_blocks=10, flops=4e6)
        handle = gpu.launch(few)
        counters = env.run(until=handle.done)
        block_time = 4e6 / (TITAN_XP.sm_flops / 16)
        # 10 blocks run fully parallel: one block_time.
        assert counters.elapsed == pytest.approx(block_time, rel=0.05)

    def test_launch_validation(self):
        env, gpu = make_gpu()
        for launch in (gpu.launch, gpu.launch_sliced):
            slate = ExecutionMode.SLATE
            for bad in ([], [99], [-1], [0, 30], [-1, 5], [29, 30]):
                with pytest.raises(ValueError):
                    launch(compute_work(), sm_ids=bad, mode=slate)
            with pytest.raises(ValueError):
                launch(compute_work(), task_size=0, mode=slate)
        with pytest.raises(ValueError):
            gpu.launch(compute_work(), sm_ids=[99])
        with pytest.raises(ValueError):
            gpu.sm_range(5, 99)
        assert gpu.active_executions == []
        # The bounds are inclusive of SM 0 and SM 29.
        gpu.launch(compute_work(), sm_ids=[0, 29])
        gpu.launch_sliced(compute_work(), sm_ids=[29, 0])
        assert len(gpu.active_executions) == 2

    def test_counters_time_bounds(self):
        env, gpu = make_gpu()
        handle = gpu.launch(compute_work(num_blocks=100))
        counters = env.run(until=handle.done)
        assert counters.start_time == 0.0
        assert counters.end_time == env.now
        assert counters.busy_time <= counters.elapsed + 1e-9


class TestHardwareVsSlateOverheads:
    def test_block_launch_overhead_slows_hardware_short_blocks(self):
        """Short-block kernels pay per-block dispatch under hardware mode."""
        work = compute_work(num_blocks=48000, flops=1e4)  # ~0.4 us blocks

        env, gpu = make_gpu(block_launch_overhead=0.0)
        t0 = env.run(until=gpu.launch(work, mode=ExecutionMode.HARDWARE).done).elapsed

        env, gpu = make_gpu(block_launch_overhead=0.5e-6)
        t1 = env.run(until=gpu.launch(work, mode=ExecutionMode.HARDWARE).done).elapsed
        assert t1 > t0 * 1.5

    def test_slate_task_grouping_amortizes_pull_cost(self):
        """Fig. 5 mechanism: larger tasks amortize the atomic pull."""
        work = compute_work(num_blocks=48000, flops=2e4, time_cv=0.0)
        times = {}
        for task_size in (1, 10):
            env, gpu = make_gpu()
            handle = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=task_size)
            times[task_size] = env.run(until=handle.done).elapsed
        assert times[1] > times[10] * 1.5

    def test_large_tasks_increase_straggler_tail(self):
        """The imbalance side of Fig. 5: high-variance kernels prefer s=1."""
        work = compute_work(num_blocks=4800, flops=2e7, time_cv=0.15)
        times = {}
        for task_size in (1, 10):
            env, gpu = make_gpu(atomic_latency=0.0)
            handle = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=task_size)
            times[task_size] = env.run(until=handle.done).elapsed
        assert times[10] > times[1]

    def test_slate_injected_instructions_counted(self):
        work = compute_work(num_blocks=100, instr_per_block=1000)
        env, gpu = make_gpu()
        handle = gpu.launch(work, mode=ExecutionMode.SLATE, inject_frac=0.03)
        counters = env.run(until=handle.done)
        assert counters.instructions == pytest.approx(100 * 1000 * 1.03, rel=1e-6)

    def test_order_sensitive_kernel_faster_under_slate(self):
        """Table III mechanism: in-order execution improves locality."""
        loc = LocalityModel(reuse_fraction=0.35, order_sensitivity=0.95, footprint=8e6)
        work = memory_work(num_blocks=20000, bytes_pb=4e6, locality=loc)
        env, gpu = make_gpu()
        hw = env.run(until=gpu.launch(work, mode=ExecutionMode.HARDWARE).done)
        env, gpu = make_gpu()
        slate = env.run(
            until=gpu.launch(work, mode=ExecutionMode.SLATE, task_size=10).done
        )
        assert slate.elapsed < hw.elapsed * 0.9
        assert slate.bytes_dram < 0.8 * hw.bytes_dram
        assert slate.mem_throttle_fraction < hw.mem_throttle_fraction


class TestConcurrentKernels:
    def test_compute_plus_memory_corun_barely_interfere(self):
        """Complementary kernels keep ~solo speed on their partitions."""
        comp = compute_work(num_blocks=6000, flops=4e6)
        mem = memory_work(num_blocks=6000, bytes_pb=4e6)

        # Solo runs on their partitions.
        env, gpu = make_gpu()
        t_comp_solo = env.run(
            until=gpu.launch(comp, sm_ids=range(15, 30)).done
        ).elapsed
        env, gpu = make_gpu()
        t_mem_solo = env.run(until=gpu.launch(mem, sm_ids=range(0, 15)).done).elapsed

        # Co-run on the same disjoint partitions.
        env, gpu = make_gpu()
        h_mem = gpu.launch(mem, sm_ids=range(0, 15))
        h_comp = gpu.launch(comp, sm_ids=range(15, 30))
        env.run(until=h_mem.done & h_comp.done)
        t_mem_corun = h_mem.counters.elapsed
        t_comp_corun = h_comp.counters.elapsed

        assert t_comp_corun == pytest.approx(t_comp_solo, rel=0.02)
        # 15 SMs of streaming already saturate DRAM solo; corun is unchanged.
        assert t_mem_corun == pytest.approx(t_mem_solo, rel=0.05)

    def test_two_memory_kernels_contend(self):
        """Two DRAM-saturating kernels slow each other ~2x."""
        mem_a = memory_work(name="a", num_blocks=8000, bytes_pb=4e6)
        mem_b = memory_work(name="b", num_blocks=8000, bytes_pb=4e6)

        env, gpu = make_gpu()
        t_solo = env.run(until=gpu.launch(mem_a, sm_ids=range(0, 15)).done).elapsed

        env, gpu = make_gpu()
        h_a = gpu.launch(mem_a, sm_ids=range(0, 15))
        h_b = gpu.launch(mem_b, sm_ids=range(15, 30))
        env.run(until=h_a.done & h_b.done)
        assert h_a.counters.elapsed > 1.7 * t_solo
        assert h_a.counters.mem_throttle_fraction > 0.3

    def test_completion_frees_bandwidth_for_survivor(self):
        """When one kernel finishes, the survivor speeds up (rate trace)."""
        short = memory_work(name="short", num_blocks=2000, bytes_pb=4e6)
        long = memory_work(name="long", num_blocks=20000, bytes_pb=4e6)
        env, gpu = make_gpu()
        h_short = gpu.launch(short, sm_ids=range(0, 15))
        h_long = gpu.launch(long, sm_ids=range(15, 30))
        env.run(until=h_long.done)
        # Find long's rate while short was running and after.
        rates_during = [
            r["long"]
            for t, r in gpu.rate_trace
            if "long" in r and "short" in r and r["short"] > 0
        ]
        rates_after = [
            r["long"]
            for t, r in gpu.rate_trace
            if "long" in r and "short" not in r
        ]
        assert rates_during and rates_after
        assert max(rates_after) > 1.5 * min(rates_during)


class TestResizing:
    def test_resize_preserves_total_blocks(self):
        env, gpu = make_gpu()
        work = compute_work(num_blocks=9000, flops=4e6)
        handle = gpu.launch(work, sm_ids=range(0, 10), mode=ExecutionMode.SLATE, task_size=10)

        def resizer(env):
            yield env.timeout(handle.work.num_blocks * 1e-7)
            yield gpu.resize(handle, range(0, 30))

        env.process(resizer(env))
        counters = env.run(until=handle.done)
        assert counters.blocks_executed == pytest.approx(9000, rel=1e-6)
        assert counters.resizes == 1

    def test_growing_speeds_completion(self):
        work = compute_work(num_blocks=20000, flops=4e6)

        env, gpu = make_gpu()
        h = gpu.launch(work, sm_ids=range(0, 10), mode=ExecutionMode.SLATE, task_size=10)
        t_small = env.run(until=h.done).elapsed

        env, gpu = make_gpu()
        h = gpu.launch(work, sm_ids=range(0, 10), mode=ExecutionMode.SLATE, task_size=10)

        def grow(env):
            yield env.timeout(t_small * 0.25)
            yield gpu.resize(h, range(0, 30))

        env.process(grow(env))
        t_grown = env.run(until=h.done).elapsed
        assert t_grown < 0.65 * t_small

    def test_shrink_slows_completion(self):
        work = compute_work(num_blocks=20000, flops=4e6)

        env, gpu = make_gpu()
        h = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=10)
        t_full = env.run(until=h.done).elapsed

        env, gpu = make_gpu()
        h = gpu.launch(work, mode=ExecutionMode.SLATE, task_size=10)

        def shrink(env):
            yield env.timeout(t_full * 0.25)
            yield gpu.resize(h, range(0, 10))

        env.process(shrink(env))
        t_shrunk = env.run(until=h.done).elapsed
        assert t_shrunk > 1.5 * t_full

    def test_resize_hardware_kernel_rejected(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(), mode=ExecutionMode.HARDWARE)
        with pytest.raises(ValueError):
            gpu.resize(h, range(0, 10))

    def test_resize_after_done_is_noop(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(num_blocks=10), mode=ExecutionMode.SLATE)
        env.run(until=h.done)
        ev = gpu.resize(h, range(0, 5))
        assert ev.triggered


class TestPauseResume:
    def test_pause_freezes_progress(self):
        env, gpu = make_gpu()
        work = compute_work(num_blocks=20000, flops=4e6)
        h = gpu.launch(work)

        def controller(env):
            yield env.timeout(1e-4)
            gpu.pause(h)
            done_at_pause = h.blocks_done
            yield env.timeout(10.0)
            assert h.blocks_done == done_at_pause
            gpu.resume(h)

        env.process(controller(env))
        counters = env.run(until=h.done)
        assert counters.blocks_executed == pytest.approx(20000, rel=1e-6)
        assert counters.elapsed > 10.0

    def test_tail_event_fires_before_done(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(num_blocks=1000))
        env.run(until=h.tail_started)
        t_tail = env.now
        env.run(until=h.done)
        assert env.now > t_tail


class TestRateTraceAndEdges:
    def test_rate_trace_records_epochs(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(name="solo", num_blocks=2000))
        env.run(until=h.done)
        assert gpu.rate_trace
        times = [t for t, _ in gpu.rate_trace]
        assert times == sorted(times)
        assert any("solo" in sample for _, sample in gpu.rate_trace)
        # The final epoch (after completion) has no active kernels.
        assert gpu.rate_trace[-1][1] == {}

    #: The co-run below, epoch by epoch: three launches at t=0, then the
    #: tail entries of ``a``, ``b`` and ``c``.
    CORUN_TRACE = [
        (0.0, {"a": 2021123.099907136}),
        (0.0, {"a": 2021123.099907136, "b": 136900.0}),
        (
            0.0,
            {"a": 2021123.099907136, "b": 58182.499999999985, "c": 116364.99999999997},
        ),
        (0.0002968646491782554, {"b": 58182.499999999985, "c": 116364.99999999997}),
        (0.007734284363855113, {"b": 136900.0}),
        (0.008829974648734588, {}),
    ]

    @staticmethod
    def _three_kernel_corun(limit=None):
        """Compute-bound ``a`` beside memory-bound ``b`` and ``c``."""
        env = Environment()
        gpu = SimulatedGPU(env, TITAN_XP, CostModel(), rate_trace_limit=limit)
        gpu.launch(compute_work("a", num_blocks=600), sm_ids=gpu.sm_range(0, 9))
        gpu.launch(
            memory_work("b", num_blocks=600, bytes_pb=4e6), sm_ids=gpu.sm_range(10, 19)
        )
        gpu.launch(
            memory_work("c", num_blocks=900, bytes_pb=2e6), sm_ids=gpu.sm_range(20, 29)
        )
        env.run()
        return env, gpu

    def test_rate_trace_of_a_three_kernel_corun(self):
        env, gpu = self._three_kernel_corun()
        assert env.stats.rate_recomputes == 6
        assert gpu.rate_trace == self.CORUN_TRACE
        # Built on read: each read is a fresh list of fresh dicts.
        assert gpu.rate_trace is not gpu.rate_trace

    def test_rate_trace_limit_zero_records_nothing_and_n_keeps_the_last_n(self):
        env, gpu = self._three_kernel_corun(limit=0)
        assert gpu.rate_trace == []
        assert env.stats.rate_recomputes == 6
        for n in (1, 3, len(self.CORUN_TRACE), 50):
            _, gpu = self._three_kernel_corun(limit=n)
            assert gpu.rate_trace == self.CORUN_TRACE[-n:]

    def test_pause_during_tail_is_noop(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(num_blocks=1000))
        env.run(until=h.tail_started)
        gpu.pause(h)  # TAIL state: must not freeze the drain
        counters = env.run(until=h.done)
        assert counters.blocks_executed == pytest.approx(1000)

    def test_resume_running_kernel_is_noop(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(num_blocks=2000))
        env.run(until=1e-5)
        before = h._rates.rate
        gpu.resume(h)  # already running
        assert h._rates.rate == before
        env.run(until=h.done)

    def test_overlapping_sm_sets_allowed_in_hardware_mode(self):
        """The device does not police SM exclusivity (Hyper-Q/leftover
        overlap legitimately share SMs); schedulers enforce disjointness."""
        env, gpu = make_gpu()
        a = gpu.launch(compute_work(name="a", num_blocks=2000))
        b = gpu.launch(compute_work(name="b", num_blocks=2000))
        env.run(until=a.done & b.done)
        assert a.counters.blocks_executed == pytest.approx(2000)
        assert b.counters.blocks_executed == pytest.approx(2000)

    def test_zero_byte_kernel_never_throttles(self):
        env, gpu = make_gpu()
        h = gpu.launch(compute_work(num_blocks=3000, flops=1e6))
        counters = env.run(until=h.done)
        assert counters.mem_throttle_fraction == 0.0
        assert counters.bytes_dram == 0.0

    def test_sm_range_helper(self):
        env, gpu = make_gpu()
        assert gpu.sm_range(0, 11) == tuple(range(12))
        assert gpu.sm_range(29, 29) == (29,)
        with pytest.raises(ValueError):
            gpu.sm_range(10, 5)


class TestCompletionTimerResidue:
    """The two branches of ``SimulatedGPU._on_timer`` for work left over."""

    def test_sub_resolution_remainder_completes_at_once(self):
        """Deep into a trace the clock's float64 step outgrows the slack.

        At t = 1e9 s one ulp is ~1.2e-7 s.  The completion instant rounds
        down and leaves ~0.34 blocks, whose catch-up delay is below the
        clock's resolution: a timer at ``now + delay == now`` would settle
        nothing and respin forever, so the kernel drains its tail now.
        """
        env = Environment(initial_time=1e9)
        gpu = SimulatedGPU(env, TITAN_XP, CostModel())
        at_tail = []
        begin_tail = gpu._begin_tail

        def recording_begin_tail(k):
            at_tail.append((env.now, k.blocks_remaining, k._rates.rate))
            begin_tail(k)

        gpu._begin_tail = recording_begin_tail
        handle = gpu.launch(compute_work())
        counters = env.run(until=handle.done)
        ((now, left, rate),) = at_tail
        assert left > 1e-6
        assert now + left / rate == now
        # Completion timer, tail timer and done (nothing waits on
        # tail_started, so it takes no queue trip): no respin.
        assert env.stats.events_processed == 3
        assert counters.blocks_executed == pytest.approx(3000, abs=1.0)

    def test_live_timer_with_work_left_reschedules(self):
        """A live timer that fires with real work left re-arms for it.

        The completion instant carries one rounding, which leaves at most
        half a clock step of catch-up delay, and that lands on ``now``
        (the branch above).  So no simulation reaches this numerical-slack
        branch on its own; the test fires the live timer at mid-run.
        """
        work = compute_work()
        ref_env, ref_gpu = make_gpu()
        ref = ref_gpu.launch(work)
        ref_env.run(until=ref.done)

        env, gpu = make_gpu()
        rescheduled = []
        schedule = gpu._schedule_completion

        def recording_schedule(k):
            rescheduled.append(env.now)
            schedule(k)

        gpu._schedule_completion = recording_schedule
        handle = gpu.launch(work)
        due = handle._timer_at
        env.run(until=due / 2)
        gpu._on_timer(handle, handle._timer_gen)
        assert rescheduled == [due / 2]
        assert handle.state is ExecState.RUNNING
        assert handle._timer_at == pytest.approx(due, rel=1e-12)
        counters = env.run(until=handle.done)
        assert counters.blocks_executed == pytest.approx(3000)
        assert env.now == pytest.approx(ref_env.now, rel=1e-12)
        # The replaced timer still fired at ``due``; its generation was
        # dead, so it re-armed nothing.
        assert rescheduled == [due / 2]


class TestTailStarted:
    """``tail_started``: a queue trip only when something waits on it."""

    @staticmethod
    def _launch_recording_tail_entry(gpu, env):
        entered = []
        begin_tail = gpu._begin_tail

        def recording_begin_tail(k):
            entered.append(env.now)
            begin_tail(k)

        gpu._begin_tail = recording_begin_tail
        return gpu.launch(compute_work(num_blocks=1000, time_cv=0.05)), entered

    def test_a_waiter_resumes_at_tail_entry(self):
        env, gpu = make_gpu()
        h, entered = self._launch_recording_tail_entry(gpu, env)
        resumed = []

        def waiter(env):
            yield h.tail_started
            resumed.append((env.now, h.state))

        env.process(waiter(env))
        env.run(until=h.done)
        assert resumed == [(entered[0], ExecState.TAIL)]
        assert entered[0] < env.now

    def test_unwatched_tail_takes_no_queue_trip_and_a_late_yield_resumes_at_once(
        self,
    ):
        env, gpu = make_gpu()
        h, entered = self._launch_recording_tail_entry(gpu, env)
        env.run(until=h.done)
        # Completion timer, tail timer and done: tail_started was marked
        # processed in place when the tail began.
        assert env.stats.events_processed == 3
        assert h.tail_started.processed and h.tail_started.ok
        finished = env.now
        resumed = []

        def late(env):
            yield h.tail_started
            resumed.append(env.now)

        env.run(until=env.process(late(env)))
        assert resumed == [finished]
        # The process's own start and exit, and nothing else.
        assert env.stats.events_processed == 3 + 2
        assert entered[0] < finished


class TestLazyProgress:
    """An execution settles only when the rate it runs at changes."""

    #: A compute-bound kernel whose rate no compute-bound co-runner on the
    #: other half of the device changes.
    STEADY = dict(num_blocks=4000, flops=3e6, time_cv=0.05)

    @staticmethod
    def _steady_beside_corunners(n_corunners):
        """``a`` on SMs 0-14 while ``n_corunners`` compute-bound kernels of
        different sizes run one after another on SMs 15-29."""
        env, gpu = make_gpu()
        a = gpu.launch(
            compute_work("a", **TestLazyProgress.STEADY), sm_ids=gpu.sm_range(0, 14)
        )
        timer = (a._timer_gen, a._timer_at)
        at_corunner_done = []

        def next_corunner(i):
            if i == n_corunners:
                return
            b = gpu.launch(
                compute_work(f"b{i}", num_blocks=150 + 97 * i, flops=1e6 + 1.7e5 * i),
                sm_ids=gpu.sm_range(15, 29),
            )

            def done(_event):
                at_corunner_done.append((a._last_settle, (a._timer_gen, a._timer_at)))
                next_corunner(i + 1)

            b.done.callbacks.append(done)

        next_corunner(0)
        counters = env.run(until=a.done)
        env.run()
        return env, gpu, counters, timer, at_corunner_done

    def test_steady_rate_keeps_its_segment_and_its_timer(self):
        env, gpu, _, timer, at_corunner_done = self._steady_beside_corunners(6)
        # Twelve co-runner epochs (each launch and each tail entry) derived
        # one rate for ``a``, and all six co-runners finished first.
        rates_of_a = {sample["a"] for _, sample in gpu.rate_trace if "a" in sample}
        assert len(rates_of_a) == 1
        assert len(at_corunner_done) == 6
        # The segment opened at launch and the timer armed there both
        # stood through every one of them ...
        assert at_corunner_done == [(0.0, timer)] * 6
        # ... so each kernel cost its completion timer, tail timer and
        # ``done``, and nothing else (settling ``a`` and re-deriving its
        # completion instant at every epoch would re-arm it: 26 events).
        assert env.stats.events_processed == 3 * 7

    def test_steady_rate_counters_equal_a_single_segment(self):
        """Bit for bit.  Settling the steady rate at every co-runner epoch
        sums one segment per epoch, which moves ``end_time``,
        ``blocks_executed``, ``flops`` and ``busy_time`` by an ULP."""
        *_, counters, _, _ = self._steady_beside_corunners(6)
        env, gpu = make_gpu()
        solo = gpu.launch(
            compute_work("a", **self.STEADY), sm_ids=gpu.sm_range(0, 14)
        )
        alone = env.run(until=solo.done)
        assert dataclasses.asdict(counters) == dataclasses.asdict(alone)

    def test_progress_reads_at_every_epoch_change_nothing(self, monkeypatch):
        """The sliced 4-wide golden scenario, with ``blocks_done`` and
        ``blocks_remaining`` of every execution read before and after
        every epoch, still matches its golden bit for bit."""
        from tests.slate.difftrace import load_golden, sliced_nway4_counters

        recompute = SimulatedGPU._recompute
        reads = []

        def read_all(gpu):
            for k in list(gpu._running.values()):
                for handle in (k,) if k._edge is None else (k, k._edge):
                    done, left = handle.blocks_done, handle.blocks_remaining
                    assert 0.0 <= done <= handle.work.num_blocks
                    assert left == max(0.0, handle.work.num_blocks - done)
                    reads.append(done)

        def reading_recompute(gpu):
            read_all(gpu)
            recompute(gpu)
            read_all(gpu)

        monkeypatch.setattr(SimulatedGPU, "_recompute", reading_recompute)
        record, sched = sliced_nway4_counters()
        assert len(reads) > 4 * sched.env.stats.rate_recomputes
        assert json.loads(json.dumps(record)) == load_golden("sliced_nway4_counters")
