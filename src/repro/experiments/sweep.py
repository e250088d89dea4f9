"""Partition-sensitivity sweep: corun turnaround vs SM split.

For a complementary pair, how sensitive is the co-run benefit to the SM
split?  Sweeping BlackScholes' share from 3 to 27 SMs (RG takes the rest)
produces a U-shaped curve: a valley across BS's bandwidth-saturation
region (~7-13 SMs, where neither kernel is starved), a steep left wall
(BS throttled far below its demand) and a steep right wall (RG squeezed
onto a handful of SMs).  The paper's heuristic lands inside the valley.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.device import DEFAULT_TASK_SIZE, SLATE_INJECT_FRAC, ExecutionMode, run_kernels
from repro.kernels.blackscholes import blackscholes
from repro.kernels.quasirandom import quasirandom
from repro.kernels.kernel import KernelSpec
from repro.metrics.report import format_table
from repro.slate.profiler import offline_profile

__all__ = ["SweepPoint", "SweepResult", "run", "format_result"]


@dataclass(frozen=True)
class SweepPoint:
    primary_sms: int
    time_primary: float
    time_secondary: float

    @property
    def concurrent_turnaround(self) -> float:
        """The paper's ANTT for a concurrent pair: max(T'_a, T'_b)."""
        return max(self.time_primary, self.time_secondary)


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    solo_primary: float
    solo_secondary: float

    @property
    def consecutive_turnaround(self) -> float:
        return self.solo_primary + self.solo_secondary

    def best_split(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.concurrent_turnaround)

    def point(self, primary_sms: int) -> SweepPoint:
        for p in self.points:
            if p.primary_sms == primary_sms:
                return p
        raise KeyError(primary_sms)


def _point(
    primary: KernelSpec,
    secondary: KernelSpec,
    n: int,
    device: DeviceConfig,
    costs: CostModel,
) -> SweepPoint:
    p, s = run_kernels(
        [primary.work(), secondary.work()],
        (range(n), range(n, device.num_sms)),
        device,
        costs,
        mode=ExecutionMode.SLATE,
        task_size=DEFAULT_TASK_SIZE,
        inject_frac=SLATE_INJECT_FRAC,
    )
    return SweepPoint(primary_sms=n, time_primary=p.elapsed, time_secondary=s.elapsed)


def run(
    primary: KernelSpec | None = None,
    secondary: KernelSpec | None = None,
    shares: Sequence[int] = tuple(range(3, 28)),
    device: DeviceConfig = TITAN_XP,
) -> SweepResult:
    """Sweep the primary kernel's SM share across ``shares``.

    Each point is an independent deterministic co-run on a private device.
    """
    costs = CostModel()
    primary = primary if primary is not None else blackscholes()
    secondary = secondary if secondary is not None else quasirandom()
    points = [_point(primary, secondary, n, device, costs) for n in shares]
    return SweepResult(
        points=tuple(points),
        solo_primary=offline_profile(primary, device, costs).elapsed,
        solo_secondary=offline_profile(secondary, device, costs).elapsed,
    )


def format_result(result: SweepResult) -> str:
    rows = []
    for p in result.points:
        ratio = p.concurrent_turnaround / result.consecutive_turnaround
        bar = "#" * int(40 * min(1.5, ratio) / 1.5)
        rows.append(
            (
                p.primary_sms,
                p.time_primary * 1e3,
                p.time_secondary * 1e3,
                f"{ratio:.2f}",
                bar,
            )
        )
    table = format_table(
        ["BS SMs", "T'_BS (ms)", "T'_RG (ms)", "max(T')/sum(T)", ""],
        rows,
        title="Partition sweep: BS-RG concurrent turnaround vs split",
    )
    best = result.best_split()
    return (
        f"{table}\n"
        f"best split: BS={best.primary_sms} SMs "
        f"(turnaround {best.concurrent_turnaround / result.consecutive_turnaround:.2f} "
        "of consecutive execution)"
    )
