"""Table IV: the BS-RG pairing, MPS vs Slate.

Paper: global/L2 throughput 241 -> 250 GB/s (+3.84%), load/store executed
151M -> 140M (-9%), IPC 0.94 -> 1.61 (+71.28%), throughput gain 30.55%.

Metrics are computed over the *pair's kernel window* (first launch to last
completion): combined traffic and instructions divided by the window — which
is why concurrency raises IPC and throughput even though each kernel's own
rates barely move.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.kernels.blackscholes import blackscholes
from repro.kernels.quasirandom import quasirandom
from repro.metrics.antt import antt
from repro.metrics.report import format_table
from repro.workloads.app import AppResult, AppSpec
from repro.workloads.harness import app_times, run_pair

__all__ = ["Tab4Result", "PAPER_TABLE_IV", "run", "format_result"]

PAPER_TABLE_IV = {
    "l2_throughput_gbps": (241.0, 250.0),
    "ldst_millions": (151.0, 140.0),
    "ipc": (0.94, 1.61),
    "throughput_gain": 0.3055,
}


@dataclass(frozen=True)
class PairWindow:
    """Combined metrics for one scheduler's BS-RG run."""

    window: float
    bytes_l2: float
    ldst: float
    instructions: float
    app_times: dict[str, float]

    def l2_throughput(self) -> float:
        return self.bytes_l2 / self.window if self.window else 0.0

    def ipc(self, device: DeviceConfig) -> float:
        cycles = self.window * device.clock_hz * device.num_sms
        return self.instructions / cycles if cycles else 0.0


@dataclass(frozen=True)
class Tab4Result:
    mps: PairWindow
    slate: PairWindow
    device: DeviceConfig
    #: ANTT-based throughput gain of Slate over MPS (paper: 30.55%).
    throughput_gain: float


def _window(results: dict[str, AppResult]) -> PairWindow:
    starts, ends = [], []
    total_bytes = total_ldst = total_instr = 0.0
    for res in results.values():
        for c in res.counters:
            starts.append(c.start_time)
            ends.append(c.end_time)
            total_bytes += c.bytes_l2
            total_ldst += c.ldst
            total_instr += c.instructions
    return PairWindow(
        window=max(ends) - min(starts),
        bytes_l2=total_bytes,
        ldst=total_ldst,
        instructions=total_instr,
        app_times={k: v.app_time for k, v in results.items()},
    )


def run(device: DeviceConfig = TITAN_XP) -> Tab4Result:
    """Run BS+RG under MPS and Slate and summarize the pair windows."""
    apps = (
        AppSpec(name="BS", kernel=blackscholes()),
        AppSpec(name="RG", kernel=quasirandom()),
    )
    solo = {
        a.name: app_times("CUDA", a, device=device)[a.name] for a in apps
    }
    mps_results, _ = run_pair("MPS", *apps, device=device)
    slate_results, _ = run_pair("Slate", *apps, device=device)
    mps_antt = antt({k: v.app_time for k, v in mps_results.items()}, solo)
    slate_antt = antt({k: v.app_time for k, v in slate_results.items()}, solo)
    return Tab4Result(
        mps=_window(mps_results),
        slate=_window(slate_results),
        device=device,
        throughput_gain=(mps_antt - slate_antt) / mps_antt,
    )


def format_result(r: Tab4Result) -> str:
    def pct(a: float, b: float) -> str:
        return f"{(b / a - 1) * 100:+.1f}%" if a else "n/a"

    mps_bw, slate_bw = r.mps.l2_throughput(), r.slate.l2_throughput()
    mps_ipc, slate_ipc = r.mps.ipc(r.device), r.slate.ipc(r.device)
    rows = [
        ("Global/L2 throughput (GB/s)", f"{mps_bw / 1e9:.0f}", f"{slate_bw / 1e9:.0f}",
         pct(mps_bw, slate_bw), "241 -> 250 (+3.84%)"),
        ("Load/store executed (M)", f"{r.mps.ldst / 1e6:.1f}", f"{r.slate.ldst / 1e6:.1f}",
         pct(r.mps.ldst, r.slate.ldst), "151 -> 140 (-9%)"),
        ("Instructions per cycle", f"{mps_ipc:.2f}", f"{slate_ipc:.2f}",
         pct(mps_ipc, slate_ipc), "0.94 -> 1.61 (+71.28%)"),
        ("Throughput gain from Slate", "", f"{r.throughput_gain:.1%}", "", "30.55%"),
    ]
    return format_table(
        ["metric", "MPS", "Slate", "delta", "paper"],
        rows,
        title="Table IV: the BS-RG pair (MPS vs Slate)",
    )
