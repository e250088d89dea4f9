"""Table III: detailed Gaussian-elimination metrics, CUDA vs Slate.

Paper: IPC 0.36 -> 0.47 (+30%), memory access bandwidth 287 -> 396 GB/s
(+38%), memory-throttle stalls 26.1% -> 0%, execution time improves 28%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.device import (
    DEFAULT_TASK_SIZE,
    SLATE_INJECT_FRAC,
    ExecutionMode,
    KernelCounters,
    run_kernels,
)
from repro.kernels.gaussian import gaussian
from repro.metrics.report import format_table

__all__ = ["Tab3Result", "PAPER_TABLE_III", "run", "format_result", "device_ipc"]

#: Paper values: metric -> (CUDA, Slate).
PAPER_TABLE_III = {
    "ipc": (0.36, 0.47),
    "mem_bw_gbps": (287.0, 396.0),
    "stall_fraction": (0.261, 0.0),
    "time_s": (24.7, 18.9),
}


def device_ipc(counters: KernelCounters, device: DeviceConfig) -> float:
    """Average warp instructions per SM-cycle over the execution window."""
    if counters.elapsed <= 0:
        return 0.0
    cycles = counters.elapsed * device.clock_hz * device.num_sms
    return counters.instructions / cycles


@dataclass(frozen=True)
class Tab3Result:
    cuda: KernelCounters
    slate: KernelCounters
    device: DeviceConfig

    @property
    def ipc_cuda(self) -> float:
        return device_ipc(self.cuda, self.device)

    @property
    def ipc_slate(self) -> float:
        return device_ipc(self.slate, self.device)

    @property
    def speedup(self) -> float:
        return self.cuda.elapsed / self.slate.elapsed

    @property
    def bw_gain(self) -> float:
        return self.slate.l2_throughput / self.cuda.l2_throughput


def run(device: DeviceConfig = TITAN_XP) -> Tab3Result:
    """Run GS solo under both schedulers and collect detailed counters."""
    spec = gaussian()
    results = {}
    for mode, kwargs in (
        (ExecutionMode.HARDWARE, {}),
        (
            ExecutionMode.SLATE,
            {"task_size": DEFAULT_TASK_SIZE, "inject_frac": SLATE_INJECT_FRAC},
        ),
    ):
        (results[mode],) = run_kernels([spec.work()], device=device, mode=mode, **kwargs)
    return Tab3Result(
        cuda=results[ExecutionMode.HARDWARE],
        slate=results[ExecutionMode.SLATE],
        device=device,
    )


def format_result(r: Tab3Result) -> str:
    def pct(a: float, b: float) -> str:
        return f"{(b / a - 1) * 100:+.0f}%" if a else "n/a"

    rows = [
        ("IPC", f"{r.ipc_cuda:.2f}", f"{r.ipc_slate:.2f}", pct(r.ipc_cuda, r.ipc_slate),
         "0.36 -> 0.47 (+30%)"),
        (
            "Mem access BW (GB/s)",
            f"{r.cuda.l2_throughput / 1e9:.0f}",
            f"{r.slate.l2_throughput / 1e9:.0f}",
            pct(r.cuda.l2_throughput, r.slate.l2_throughput),
            "287 -> 396 (+38%)",
        ),
        (
            "% stalls: mem throttle",
            f"{r.cuda.mem_throttle_fraction:.1%}",
            f"{r.slate.mem_throttle_fraction:.1%}",
            "",
            "26.1% -> 0%",
        ),
        (
            "Execution time (ms)",
            f"{r.cuda.elapsed * 1e3:.2f}",
            f"{r.slate.elapsed * 1e3:.2f}",
            f"{(r.speedup - 1) * 100:+.0f}%",
            "24.7 s -> 18.9 s (+28%)",
        ),
    ]
    return format_table(
        ["metric", "CUDA", "Slate", "delta", "paper"],
        rows,
        title="Table III: Gaussian elimination detail (CUDA vs Slate)",
    )
