"""Table II: benchmark profiles under solo CUDA execution.

Reproduces the nvprof-collected profile table: intensity classes, GFLOP/s
and memory bandwidth for the five evaluation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.device import ExecutionMode, run_kernels
from repro.kernels.registry import BENCHMARKS, SHORT_NAMES
from repro.metrics.report import format_table
from repro.slate.classify import classify, classify_levels

__all__ = ["ProfileRow", "Tab2Result", "PAPER_TABLE_II", "run", "format_result"]

#: The paper's published numbers: (compute level, memory level, GFLOP/s, GB/s).
PAPER_TABLE_II = {
    "BS": ("M", "M", 161.3, 401.49),
    "GS": ("L", "M", 19.6, 340.9),
    "MM": ("H", "M", 1525.0, 403.5),
    "RG": ("L", "L", 4.2, 71.6),
    "TR": ("L", "H", 0.0, 568.6),
}


@dataclass(frozen=True)
class ProfileRow:
    name: str
    compute_level: str
    memory_level: str
    gflops: float
    mem_bw_gbps: float
    combined_class: str


@dataclass(frozen=True)
class Tab2Result:
    rows: tuple[ProfileRow, ...]

    def row(self, name: str) -> ProfileRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def run(device: DeviceConfig = TITAN_XP) -> Tab2Result:
    """Profile every benchmark solo under vanilla CUDA scheduling."""
    rows = []
    for name in SHORT_NAMES:
        spec = BENCHMARKS[name]()
        (counters,) = run_kernels([spec.work()], device=device, mode=ExecutionMode.HARDWARE)
        compute, memory = classify_levels(counters.gflops, counters.l2_throughput, device)
        rows.append(
            ProfileRow(
                name=name,
                compute_level=compute.value,
                memory_level=memory.value,
                gflops=counters.gflops,
                mem_bw_gbps=counters.l2_throughput / 1e9,
                combined_class=classify(counters.gflops, counters.l2_throughput, device).value,
            )
        )
    return Tab2Result(rows=tuple(rows))


def format_result(result: Tab2Result) -> str:
    rows = []
    for r in result.rows:
        paper = PAPER_TABLE_II[r.name]
        rows.append(
            (
                r.name,
                f"{r.compute_level}/{paper[0]}",
                f"{r.memory_level}/{paper[1]}",
                f"{r.gflops:.1f}/{paper[2]:.1f}",
                f"{r.mem_bw_gbps:.1f}/{paper[3]:.1f}",
                r.combined_class,
            )
        )
    return format_table(
        [
            "bench",
            "compute (ours/paper)",
            "memory (ours/paper)",
            "GFLOP/s (ours/paper)",
            "BW GB/s (ours/paper)",
            "class",
        ],
        rows,
        title="Table II: benchmark profiles (solo CUDA)",
    )
