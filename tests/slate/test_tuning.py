"""Task-size auto-tuner tests."""

from dataclasses import replace

import pytest

from repro.config import TESLA_V100, TITAN_XP, CostModel
from repro.gpu.device import ExecutionMode, SimulatedGPU
from repro.kernels import blackscholes, gaussian, sgemm
from repro.sim import Environment
from repro.slate import SlateRuntime
from repro.slate.tuning import CANDIDATE_SIZES, auto_task_size, predict_kernel_time


def measured_time(spec, task_size):
    env = Environment()
    gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    handle = gpu.launch(
        spec.work(), mode=ExecutionMode.SLATE, task_size=task_size, inject_frac=0.03
    )
    return env.run(until=handle.done).elapsed


class TestPrediction:
    @pytest.mark.parametrize("task_size", [1, 5, 10, 50])
    def test_prediction_matches_executor(self, task_size):
        """The tuner's model is the executor's model: predictions match."""
        spec = gaussian()
        predicted = predict_kernel_time(spec, task_size)
        measured = measured_time(spec, task_size)
        assert predicted == measured

    @pytest.mark.parametrize("device", [TITAN_XP, TESLA_V100], ids=["titan_xp", "v100"])
    def test_prediction_equals_executor_on_every_benchmark(self, device):
        """The tuner builds the device's rate input and tail: its prediction
        is the device's solo elapsed time, bit for bit, for every paper
        benchmark at every candidate size."""
        from repro.kernels import BENCHMARKS

        for factory in BENCHMARKS.values():
            spec = factory()
            for size in CANDIDATE_SIZES:
                env = Environment()
                gpu = SimulatedGPU(env, device, CostModel())
                handle = gpu.launch(
                    spec.work(), mode=ExecutionMode.SLATE, task_size=size,
                    inject_frac=0.03,
                )
                measured = env.run(until=handle.done).elapsed
                predicted = predict_kernel_time(spec, size, device=device)
                assert predicted == measured, (spec.name, size)

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_kernel_time(gaussian(), 0)
        with pytest.raises(ValueError):
            auto_task_size(gaussian(), candidates=())


class TestChoices:
    def test_gs_prefers_large_tasks(self):
        choice = auto_task_size(gaussian())
        assert choice.task_size >= 10
        assert choice.improvement_over(1) > 1.0  # >2x better than size 1

    def test_bs_prefers_tiny_tasks(self):
        choice = auto_task_size(blackscholes())
        assert choice.task_size <= 2

    def test_choice_beats_default_when_measured(self):
        """The tuned size is at least as fast as the fixed default of 10,
        measured on the executor, for every paper benchmark."""
        from repro.kernels import BENCHMARKS

        for factory in BENCHMARKS.values():
            spec = factory()
            choice = auto_task_size(spec)
            tuned = measured_time(spec, choice.task_size)
            default = measured_time(spec, 10)
            assert tuned <= default * 1.005, spec.name

    def test_sweep_recorded(self):
        choice = auto_task_size(sgemm())
        assert set(choice.sweep) == {1, 2, 5, 10, 20, 50}
        assert choice.predicted_time == min(choice.sweep.values())


class TestDaemonIntegration:
    def test_explicit_size_overrides_tuner(self):
        env = Environment()
        rt = SlateRuntime(env)
        gs = gaussian()
        rt.preload_profiles([gs])
        session = rt.create_session("app")

        def app(env):
            ticket = yield from session.launch(gs, task_size=3)
            yield from session.synchronize()
            return ticket

        assert env.run(until=env.process(app(env))).task_size == 3

    def test_default_daemon_sticks_to_ten(self):
        env = Environment()
        rt = SlateRuntime(env)
        gs = gaussian()
        rt.preload_profiles([gs])
        session = rt.create_session("app")

        def app(env):
            ticket = yield from session.launch(gs)
            yield from session.synchronize()
            return ticket

        assert env.run(until=env.process(app(env))).task_size == 10

    def test_auto_tuning_improves_gs_app(self):
        from repro.workloads.harness import app_for, run_solo

        app = app_for("GS")
        size = auto_task_size(app.kernel).task_size
        default, _ = run_solo("Slate", app)
        tuned, _ = run_solo("Slate", replace(app, task_size=size))
        assert tuned.kernel_exec_time < default.kernel_exec_time


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    cfrac=st.floats(min_value=0.001, max_value=0.3),
    mfrac=st.floats(min_value=0.0, max_value=1.0),
    block_time=st.floats(min_value=1e-6, max_value=1e-4),
    task_size=st.sampled_from([1, 2, 5, 10, 25, 50]),
)
@settings(max_examples=60, deadline=None)
def test_prediction_matches_executor_on_random_kernels(
    cfrac, mfrac, block_time, task_size
):
    """The tuner's analytic model equals the fluid executor everywhere,
    not just on the calibrated benchmarks."""
    from repro.kernels import synthetic

    spec = synthetic(cfrac, mfrac, num_blocks=4800, block_time=block_time)
    predicted = predict_kernel_time(spec, task_size)
    measured = measured_time(spec, task_size)
    assert predicted == measured
