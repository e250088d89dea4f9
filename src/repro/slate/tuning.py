"""Per-kernel task-size auto-tuning (extension of §V-B / Fig. 5).

The paper fixes ``SLATE_ITERS`` at 10 and notes the trade-off it leaves on
the table: short-block kernels want large tasks (amortize the atomic
pull), high-variance kernels want small ones (whole-task stragglers), and
"a very large value may cause workload imbalance".  This module closes the
loop: it predicts kernel time across candidate task sizes with the same
analytic model the executor uses — bulk phase from
:func:`repro.gpu.rates.derive_rates` plus the partial-wave and straggler
tail — and picks the argmin.

The daemon itself keeps the paper's fixed 10; ``repro tune`` and the
``abl-tasksize`` ablation call :func:`auto_task_size`, and a caller that
wants the tuned size passes it as the launch's ``task_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.occupancy import occupancy
from repro.gpu.rates import RateInput, SchedulingMode, derive_rates
from repro.kernels.kernel import KernelSpec

__all__ = ["TaskSizeChoice", "predict_kernel_time", "auto_task_size", "CANDIDATE_SIZES"]

CANDIDATE_SIZES = (1, 2, 5, 10, 20, 50)


def predict_kernel_time(
    spec: KernelSpec,
    task_size: int,
    n_sms: int | None = None,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    inject_frac: float = 0.03,
) -> float:
    """Predicted solo Slate kernel time for ``spec`` at ``task_size``."""
    if task_size < 1:
        raise ValueError("task_size must be >= 1")
    work = spec.work()
    n = n_sms if n_sms is not None else device.num_sms
    blocks_per_sm = occupancy(device, work.block).blocks_per_sm
    resident = blocks_per_sm * n
    n_tasks = -(-work.num_blocks // task_size)
    parallel = max(1, min(resident, n_tasks))
    inp = RateInput(
        key="k",
        flops_per_block=work.flops_per_block,
        bytes_per_block=work.bytes_per_block,
        locality=work.locality,
        dram_efficiency=work.dram_efficiency,
        min_block_time=work.min_block_time,
        mode=SchedulingMode.SLATE,
        blocks_per_sm=blocks_per_sm,
        n_sms=n,
        parallelism=parallel,
        task_size=task_size,
        inject_frac=inject_frac,
    )
    out = derive_rates([inp], device, costs)["k"]
    bulk = work.num_blocks / out.rate
    # Tail: fractional final task wave + straggler excess (cv shrinks by
    # sqrt(s) per task but the unit of imbalance is a whole task).
    waves = n_tasks / min(parallel, n_tasks)
    frac = math.ceil(waves) - waves
    spread = work.time_cv * math.sqrt(2.0 * math.log(max(2, parallel)))
    tail = out.block_time * task_size * frac + out.block_time * math.sqrt(task_size) * spread
    return bulk + tail


@dataclass(frozen=True)
class TaskSizeChoice:
    """Outcome of the tuning sweep."""

    task_size: int
    predicted_time: float
    #: candidate -> predicted time, for diagnostics.
    sweep: dict[int, float]

    def improvement_over(self, task_size: int) -> float:
        """Relative gain vs running at ``task_size`` instead."""
        return self.sweep[task_size] / self.predicted_time - 1.0


def auto_task_size(
    spec: KernelSpec,
    n_sms: int | None = None,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    candidates: tuple[int, ...] = CANDIDATE_SIZES,
) -> TaskSizeChoice:
    """Pick the predicted-fastest ``SLATE_ITERS`` for ``spec``."""
    if not candidates:
        raise ValueError("need at least one candidate task size")
    sweep = {
        s: predict_kernel_time(spec, s, n_sms=n_sms, device=device, costs=costs)
        for s in candidates
    }
    best = min(sweep, key=sweep.get)
    return TaskSizeChoice(task_size=best, predicted_time=sweep[best], sweep=sweep)
