"""Per-kernel task-size auto-tuning (extension of §V-B / Fig. 5).

The paper fixes ``SLATE_ITERS`` at 10 and notes the trade-off it leaves on
the table: short-block kernels want large tasks (amortize the atomic
pull), high-variance kernels want small ones (whole-task stragglers), and
"a very large value may cause workload imbalance".  This module closes the
loop: it predicts kernel time across candidate task sizes with the
executor's own model — the device's input builder
(:func:`repro.gpu.rates.rate_input`), the bulk phase from
:func:`repro.gpu.rates.derive_rates` and the device's ragged tail
(:class:`repro.gpu.rates.RaggedTail`) — and picks the argmin.  A
prediction equals the device's solo elapsed time for the same launch.

The daemon itself keeps the paper's fixed 10; ``repro tune`` and the
``abl-tasksize`` ablation call :func:`auto_task_size`, and a caller that
wants the tuned size passes it as the launch's ``task_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.cache import ORDER_FACTORS
from repro.gpu.device import SLATE_INJECT_FRAC
from repro.gpu.rates import RaggedTail, SchedulingMode, derive_rates, rate_input
from repro.kernels.kernel import KernelSpec

__all__ = ["TaskSizeChoice", "predict_kernel_time", "auto_task_size", "CANDIDATE_SIZES"]

CANDIDATE_SIZES = (1, 2, 5, 10, 20, 50)


def predict_kernel_time(
    spec: KernelSpec,
    task_size: int,
    n_sms: int | None = None,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    inject_frac: float = SLATE_INJECT_FRAC,
) -> float:
    """Predicted solo Slate kernel time for ``spec`` at ``task_size``.

    Bulk (every block at the derived rate) plus the ragged tail, summed in
    the device's order.
    """
    if task_size < 1:
        raise ValueError("task_size must be >= 1")
    work = spec.work()
    n = n_sms if n_sms is not None else device.num_sms
    inp = rate_input(
        work,
        n,
        device,
        SchedulingMode.SLATE,
        task_size,
        inject_frac,
        ORDER_FACTORS["slate"],
    )
    out = derive_rates([inp], device, costs)[inp.key]
    return work.num_blocks / out.rate + RaggedTail(work, inp)(out.block_time)


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
