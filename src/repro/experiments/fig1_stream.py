"""Figure 1: Stream read bandwidth vs number of SMs.

Paper: "Bandwidth first increases quickly and reaches the peak with nine
SMs; it does not further increase with SMs" (6 GB problem, Titan Xp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.device import ExecutionMode, run_kernels
from repro.kernels.stream import stream
from repro.metrics.report import format_table

__all__ = ["Fig1Result", "run", "format_result", "knee_point"]


@dataclass(frozen=True)
class Fig1Result:
    """Bandwidth (bytes/s) measured at each SM count."""

    points: tuple[tuple[int, float], ...]
    device: DeviceConfig

    def bandwidth(self, sms: int) -> float:
        for n, bw in self.points:
            if n == sms:
                return bw
        raise KeyError(f"no sample at {sms} SMs")

    @property
    def plateau(self) -> float:
        return self.points[-1][1]


def run(
    sm_counts: Optional[Sequence[int]] = None,
    total_bytes: float = 2 * 1024**3,
    device: DeviceConfig = TITAN_XP,
) -> Fig1Result:
    """Measure Stream read bandwidth across SM counts.

    ``total_bytes`` defaults to a scaled-down problem (the paper used 6 GB);
    the achieved-bandwidth curve is size-independent in the model.
    """
    if sm_counts is None:
        sm_counts = tuple(range(1, device.num_sms + 1))
    points = []
    for n in sm_counts:
        spec = stream(total_bytes=total_bytes)
        (counters,) = run_kernels([spec.work()], (range(n),), device, mode=ExecutionMode.HARDWARE)
        points.append((n, counters.l2_throughput))
    return Fig1Result(points=tuple(points), device=device)


def knee_point(result: Fig1Result, tolerance: float = 0.97) -> int:
    """First SM count achieving ``tolerance`` of the plateau bandwidth."""
    for n, bw in result.points:
        if bw >= tolerance * result.plateau:
            return n
    return result.points[-1][0]


def format_result(result: Fig1Result) -> str:
    rows = [(n, bw / 1e9, bw / result.plateau) for n, bw in result.points]
    table = format_table(
        ["SMs", "bandwidth (GB/s)", "fraction of plateau"],
        rows,
        title="Figure 1: Stream read bandwidth vs SM count",
    )
    return (
        f"{table}\n"
        f"knee (97% of plateau): {knee_point(result)} SMs "
        f"(paper: 9), plateau {result.plateau / 1e9:.1f} GB/s"
    )
