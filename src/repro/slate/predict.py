"""Predictive SM partitioning (model-driven extension).

The paper's partition heuristic gives the memory-intensive kernel its
bandwidth-saturation SM count and hands the rest to the partner.  This
module implements the natural extension the paper leaves open: *predict*
both kernels' co-run rates for every feasible split using the simulator's
own analytic rate model (:func:`repro.gpu.rates.derive_rates`, fed by the
device's builder :func:`repro.gpu.rates.rate_input` with the scheduler's
launch arguments, so a prediction equals the device's first-epoch rates
for the same split) and pick the split that maximizes predicted system
throughput (STP), tie-breaking toward the heuristic's asymmetry (finish
the heavy kernel early so the survivor can grow onto the freed SMs).

Exposed to the scheduler via ``partition_strategy="predictive"``; the
ablation benchmark compares heuristic vs predictive vs even splits.  The
search is pure, so :func:`choose_partition_predictive` is memoized by
value: that strategy and the ``online-predictive`` policy share one memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.cache import ORDER_FACTORS
from repro.gpu.rates import RateInput, SchedulingMode, derive_rates, rate_input
from repro.kernels.kernel import KernelSpec
from repro.slate.partition import MIN_SHARE, Partition
from repro.slate.scheduler import DEFAULT_TASK_SIZE, SLATE_INJECT_FRAC

__all__ = ["PredictedSplit", "predict_corun_rates", "choose_partition_predictive"]


def _rate_input(
    spec: KernelSpec,
    key: object,
    n_sms: int,
    device: DeviceConfig,
    task_size: int,
) -> RateInput:
    """The input the device builds for ``spec`` launched by the scheduler."""
    return rate_input(
        spec.work(),
        n_sms,
        device,
        SchedulingMode.SLATE,
        task_size,
        SLATE_INJECT_FRAC,
        ORDER_FACTORS["slate"],
        key,
    )


def predict_corun_rates(
    spec_a: KernelSpec,
    spec_b: KernelSpec,
    n_a: int,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    task_size: int = DEFAULT_TASK_SIZE,
) -> tuple[float, float]:
    """Predicted block rates (blocks/s) when A gets ``n_a`` SMs, B the rest."""
    if not MIN_SHARE <= n_a <= device.num_sms - MIN_SHARE:
        raise ValueError(f"n_a must be in [{MIN_SHARE}, {device.num_sms - MIN_SHARE}]")
    inputs = [
        _rate_input(spec_a, "a", n_a, device, task_size),
        _rate_input(spec_b, "b", device.num_sms - n_a, device, task_size),
    ]
    outputs = derive_rates(inputs, device, costs)
    return outputs["a"].rate, outputs["b"].rate


def _solo_rate(
    spec: KernelSpec, device: DeviceConfig, costs: CostModel, task_size: int
) -> float:
    inputs = [_rate_input(spec, "solo", device.num_sms, device, task_size)]
    return derive_rates(inputs, device, costs)["solo"].rate


@dataclass(frozen=True)
class PredictedSplit:
    """Outcome of the predictive search."""

    n_a: int
    n_b: int
    rate_a: float
    rate_b: float
    predicted_stp: float

    def partition_for_a_primary(self) -> Partition:
        return Partition(
            primary_sms=tuple(range(self.n_a)),
            secondary_sms=tuple(range(self.n_a, self.n_a + self.n_b)),
        )


@lru_cache(maxsize=1024)
def choose_partition_predictive(
    spec_a: KernelSpec,
    spec_b: KernelSpec,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    task_size: int = DEFAULT_TASK_SIZE,
    min_share: int = MIN_SHARE,
) -> PredictedSplit:
    """Scan all feasible splits; maximize predicted STP.

    STP(split) = rate_a/solo_rate_a + rate_b/solo_rate_b.  Among splits
    within 0.1% of the best STP, prefer giving the *larger-remaining-work*
    kernel fewer SMs only if it saturates — concretely, prefer the split
    whose slower-normalized kernel is fastest (min-max tie-break), and then
    the most asymmetric one (earliest completion for one side enables the
    dynamic-resizing grow).

    Every argument and the result are frozen, so the search is cached on
    argument *values* (``lru_cache``): a battery asks for the same few
    splits hundreds of times.  Call
    ``choose_partition_predictive.cache_clear()`` to forget them.
    """
    solo_a = _solo_rate(spec_a, device, costs, task_size)
    solo_b = _solo_rate(spec_b, device, costs, task_size)
    candidates: list[tuple[float, float, int, float, float]] = []
    for n_a in range(min_share, device.num_sms - min_share + 1):
        rate_a, rate_b = predict_corun_rates(
            spec_a, spec_b, n_a, device, costs, task_size
        )
        stp = rate_a / solo_a + rate_b / solo_b
        min_speed = min(rate_a / solo_a, rate_b / solo_b)
        candidates.append((stp, min_speed, n_a, rate_a, rate_b))

    best_stp = max(c[0] for c in candidates)
    near_best = [c for c in candidates if c[0] >= best_stp * 0.999]
    # Tie-break 1: best min normalized speed; tie-break 2: most asymmetric.
    near_best.sort(key=lambda c: (c[1], abs(2 * c[2] - device.num_sms)), reverse=True)
    stp, _, n_a, rate_a, rate_b = near_best[0]
    return PredictedSplit(
        n_a=n_a,
        n_b=device.num_sms - n_a,
        rate_a=rate_a,
        rate_b=rate_b,
        predicted_stp=stp,
    )
