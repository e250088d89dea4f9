"""Figure 5: effect of task size on Slate kernel execution time.

Paper: GS's kernel time "almost halves with the task size of 10"; "a very
large value may cause workload imbalance ... the task size of 10 is worse
than the task size of 1 for BS".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.device import SLATE_INJECT_FRAC, ExecutionMode, run_kernels
from repro.kernels.registry import by_name
from repro.metrics.report import format_table

__all__ = ["Fig5Result", "DEFAULT_TASK_SIZES", "run", "format_result"]

DEFAULT_TASK_SIZES = (1, 2, 5, 10, 20, 50)


@dataclass(frozen=True)
class Fig5Result:
    """kernel -> {task_size: kernel execution time (s)}."""

    series: dict[str, dict[int, float]]

    def normalized(self, name: str) -> dict[int, float]:
        """Times normalized to task size 1 (the paper's presentation)."""
        base = self.series[name][1]
        return {s: t / base for s, t in self.series[name].items()}


def run(
    benchmarks: Sequence[str] = ("GS", "BS"),
    task_sizes: Sequence[int] = DEFAULT_TASK_SIZES,
    device: DeviceConfig = TITAN_XP,
) -> Fig5Result:
    """Sweep ``task_sizes`` for each benchmark under Slate scheduling."""
    series: dict[str, dict[int, float]] = {}
    for name in benchmarks:
        spec = by_name(name)
        series[name] = {}
        for s in task_sizes:
            (counters,) = run_kernels(
                [spec.work()],
                device=device,
                mode=ExecutionMode.SLATE,
                task_size=s,
                inject_frac=SLATE_INJECT_FRAC,
            )
            series[name][s] = counters.elapsed
    return Fig5Result(series=series)


def format_result(result: Fig5Result) -> str:
    names = list(result.series)
    sizes = sorted(next(iter(result.series.values())))
    rows = []
    for s in sizes:
        row = [s]
        for n in names:
            row.append(result.series[n][s] * 1e3)
            row.append(result.normalized(n)[s])
        rows.append(row)
    headers = ["task size"]
    for n in names:
        headers += [f"{n} time (ms)", f"{n} norm"]
    notes = []
    for n in names:
        norm = result.normalized(n)
        best = min(norm, key=norm.get)
        notes.append(f"{n}: best at task size {best}")
    return (
        format_table(headers, rows, title="Figure 5: task size vs Slate kernel time")
        + "\n"
        + "; ".join(notes)
        + "  (paper: GS halves by size 10; BS prefers size 1)"
    )
