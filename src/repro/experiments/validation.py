"""Model-error study: epoch-fluid executor vs per-block reference.

The reproduction's timing engine is the analytic epoch-fluid executor; its
credibility rests on agreeing with a brute-force per-block discrete-event
execution.  This experiment quantifies that agreement over a seeded random
population of kernel configurations (solo, both scheduling modes, several
task sizes and SM counts) and a set of co-run partitions, reporting the
relative-error distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.detailed import run_detailed, run_detailed_corun
from repro.gpu.device import DEFAULT_TASK_SIZE, ExecutionMode, KernelWork, run_kernels
from repro.gpu.occupancy import BlockResources
from repro.metrics.report import format_table

__all__ = ["ValidationResult", "run", "format_result"]


@dataclass(frozen=True)
class Sample:
    label: str
    fluid: float
    detailed: float

    @property
    def error(self) -> float:
        return abs(self.fluid - self.detailed) / self.detailed


@dataclass(frozen=True)
class ValidationResult:
    solo_samples: tuple[Sample, ...]
    corun_samples: tuple[Sample, ...]

    def _errors(self, samples) -> np.ndarray:
        return np.array([s.error for s in samples])

    @property
    def solo_mean_error(self) -> float:
        return float(self._errors(self.solo_samples).mean())

    @property
    def solo_max_error(self) -> float:
        return float(self._errors(self.solo_samples).max())

    @property
    def corun_mean_error(self) -> float:
        return float(self._errors(self.corun_samples).mean())

    @property
    def corun_max_error(self) -> float:
        return float(self._errors(self.corun_samples).max())


def _random_work(rng: np.random.Generator, idx: int) -> KernelWork:
    threads = int(rng.choice([64, 128, 256]))
    return KernelWork(
        name=f"val{idx}",
        num_blocks=int(rng.integers(400, 4000)),
        block=BlockResources(threads_per_block=threads, registers_per_thread=32),
        flops_per_block=float(rng.uniform(1e4, 4e6)),
        bytes_per_block=float(rng.uniform(0, 2e6)),
        time_cv=float(rng.uniform(0, 0.15)),
        min_block_time=float(rng.uniform(0, 20e-6)),
    )


def run(
    n_solo: int = 20,
    n_corun: int = 6,
    seed: int = 0,
    device: DeviceConfig = TITAN_XP,
) -> ValidationResult:
    """Compare fluid vs detailed on a seeded random kernel population."""
    rng = np.random.default_rng(seed)
    costs = CostModel()
    solo: list[Sample] = []
    for i in range(n_solo):
        work = _random_work(rng, i)
        mode = ExecutionMode.SLATE if i % 2 else ExecutionMode.HARDWARE
        task_size = int(rng.choice([1, 5, 10, 25])) if mode is ExecutionMode.SLATE else 1
        sm_count = int(rng.choice([5, 10, 15, 30]))
        (fluid,) = run_kernels(
            [work], (range(sm_count),), device, costs, mode=mode, task_size=task_size
        )
        detailed = run_detailed(
            work, device, costs, mode=mode, task_size=task_size, sm_count=sm_count, seed=i
        ).elapsed
        solo.append(
            Sample(
                label=f"solo/{mode.value}/s{task_size}/sm{sm_count}",
                fluid=fluid.elapsed,
                detailed=detailed,
            )
        )

    corun: list[Sample] = []
    for i in range(n_corun):
        work_a = _random_work(rng, 100 + i)
        work_b = _random_work(rng, 200 + i)
        sms_a = int(rng.integers(5, device.num_sms - 5))
        fa, fb = run_kernels(
            [work_a, work_b],
            (range(sms_a), range(sms_a, device.num_sms)),
            device,
            costs,
            mode=ExecutionMode.SLATE,
            task_size=DEFAULT_TASK_SIZE,
        )
        da, db = run_detailed_corun(
            work_a, work_b, sms_a, device.num_sms - sms_a, device, costs, seed=i
        )
        corun.append(Sample(label=f"corun/a/sm{sms_a}", fluid=fa.elapsed, detailed=da.elapsed))
        corun.append(
            Sample(
                label=f"corun/b/sm{device.num_sms - sms_a}", fluid=fb.elapsed, detailed=db.elapsed
            )
        )
    return ValidationResult(solo_samples=tuple(solo), corun_samples=tuple(corun))


def format_result(result: ValidationResult) -> str:
    rows = []
    for s in [*result.solo_samples, *result.corun_samples]:
        rows.append((s.label, s.fluid * 1e3, s.detailed * 1e3, f"{s.error:.1%}"))
    table = format_table(
        ["configuration", "fluid (ms)", "detailed (ms)", "rel. error"],
        rows,
        title="Model validation: epoch-fluid vs per-block executor",
    )
    return (
        f"{table}\n"
        f"solo:  mean {result.solo_mean_error:.1%}, max {result.solo_max_error:.1%}  "
        f"({len(result.solo_samples)} samples)\n"
        f"corun: mean {result.corun_mean_error:.1%}, max {result.corun_max_error:.1%}  "
        f"({len(result.corun_samples)} samples)"
    )
