"""Retreat vs slice: what slice-boundary control buys over mid-kernel drains.

Two costs of Slate's retreat mechanism motivate kernelet-style slicing
(``repro.slate.slicing``):

* **Part A — repartition stall.**  When a corun decision resizes a running
  kernel, the classic path drains the in-flight wave and relaunches
  (``retreat_latency`` + ``kernel_launch_overhead`` of dead time, recorded
  in :attr:`~repro.gpu.device.KernelCounters.resize_stall`).  A sliced
  launch instead adopts the new SM set at the next slice edge — zero
  stall — unless the final slice is already in flight, in which case it
  falls back to one classic retreat.  Every RG pairing repartitions twice
  (solo grow + corun shrink), so those four pairs are the specimen set.

* **Part B — VIP preemption latency.**  Under a burst of high-priority
  arrivals, a scheduler without preemption makes each VIP wait out the
  running launch (drain-wait).  Slicing bounds that wait at one slice:
  the victim is paused at its next edge and the VIP placed immediately.
  The :class:`VipWholeGridPolicy` rides the ``slice_quota`` hook so the
  VIPs themselves launch whole-grid (slicing overhead lands only on the
  preemptible background tenants).

Slices are sized at :data:`SLICE_BLOCKS` — four device waves at the
default task size (480 persistent workers x 10-block tasks on Titan Xp).
Smaller slices shorten the preemption bound but pay ragged-tail
under-occupancy on every slice; see ``docs/slicing.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.metrics.report import format_table, percentile
from repro.slate.policy import Table1Policy
from repro.workloads.app import AppResult
from repro.workloads.harness import app_for, run_many, run_pair

__all__ = [
    "SLICE_BLOCKS",
    "VipWholeGridPolicy",
    "PairRow",
    "BurstRow",
    "RetreatVsSliceResult",
    "run",
    "format_result",
]

#: Blocks per slice for every sliced run in this experiment: four device
#: waves (30 SMs x 16 workers x 10-block tasks x 4) so slice tails stay a
#: small fraction of slice bodies.
SLICE_BLOCKS = 19200

#: The four pairings whose corun decisions resize a running kernel.
RESIZE_PAIRS = (("BS", "RG"), ("GS", "RG"), ("MM", "RG"), ("RG", "TR"))


class VipWholeGridPolicy(Table1Policy):
    """Table I policy + the slicing hook burst traffic wants.

    High-priority tickets launch whole-grid (a VIP should never pay slice
    dispatch gaps); best-effort tickets keep the scheduler-wide slice size
    and stay preemptible at slice granularity.
    """

    name = "table1-vip-whole-grid"

    def slice_quota(self, ticket, work):
        if ticket.priority > 0:
            return work.num_blocks
        return super().slice_quota(ticket, work)


@dataclass(frozen=True)
class PairRow:
    """One pairing under one resize mechanism."""

    pair: str
    mode: str  # retreat | slice-edge
    makespan: float
    resizes: int
    resize_stall: float  # seconds of drain dead time


@dataclass(frozen=True)
class BurstRow:
    """One scheduler configuration against the shared VIP burst."""

    mode: str  # drain-wait | retreat-preempt | slice-preempt
    vip_mean: float
    vip_p99: float
    makespan: float
    preemptions: int
    slice_preempts: int
    resize_stall: float


@dataclass(frozen=True)
class RetreatVsSliceResult:
    pairs: tuple[PairRow, ...]
    burst: tuple[BurstRow, ...]

    def pair_row(self, pair: str, mode: str) -> PairRow:
        for r in self.pairs:
            if r.pair == pair and r.mode == mode:
                return r
        raise KeyError((pair, mode))

    def burst_row(self, mode: str) -> BurstRow:
        for r in self.burst:
            if r.mode == mode:
                return r
        raise KeyError(mode)

    def total_pair_stall(self, mode: str) -> float:
        return sum(r.resize_stall for r in self.pairs if r.mode == mode)


def _stall(results: dict[str, AppResult]) -> float:
    return sum(
        c.resize_stall for r in results.values() for c in r.counters
    )


def run_pairs(device: DeviceConfig = TITAN_XP) -> tuple[PairRow, ...]:
    """Part A: each resize-heavy pairing, retreat vs slice-edge."""
    rows = []
    for a, b in RESIZE_PAIRS:
        for mode, kwargs in (
            ("retreat", {}),
            ("slice-edge", {"slicing": True, "slice_blocks": SLICE_BLOCKS}),
        ):
            results, runtime = run_pair(
                "Slate", app_for(a), app_for(b), device=device, **kwargs
            )
            rows.append(
                PairRow(
                    pair=f"{a}-{b}",
                    mode=mode,
                    makespan=max(r.end for r in results.values()),
                    resizes=runtime.scheduler.resizes,
                    resize_stall=_stall(results),
                )
            )
    return tuple(rows)


def build_burst() -> tuple[list, list[float]]:
    """Three long-launch background tenants + eight short VIP arrivals.

    The VIPs arrive in three clumps (the bursty part) while the background
    loops multi-millisecond launches, so a VIP that cannot preempt waits a
    uniformly-random fraction of a background launch before placement.
    """
    apps, arrivals = [], []
    for i, bench in enumerate(["GS", "TR", "GS"]):
        apps.append(
            dataclasses.replace(
                app_for(bench, name=f"{bench}.bg{i}"), reps=10, priority=0
            )
        )
        arrivals.append(0.0)
    vip_arrivals = [0.010, 0.0115, 0.013, 0.030, 0.0315, 0.033, 0.050, 0.0515]
    for j, at in enumerate(vip_arrivals):
        apps.append(
            dataclasses.replace(
                app_for("RG", name=f"RG.vip{j}"),
                reps=1,
                priority=2,
                include_transfers=False,
            )
        )
        arrivals.append(at)
    return apps, arrivals


#: Part B scheduler configurations, in table order.
BURST_MODES = (
    ("drain-wait", {}),
    ("retreat-preempt", {"enable_preemption": True}),
    (
        "slice-preempt",
        {
            "enable_preemption": True,
            "slicing": True,
            "slice_blocks": SLICE_BLOCKS,
            "policy": VipWholeGridPolicy,
        },
    ),
)


def run_burst(device: DeviceConfig = TITAN_XP) -> tuple[BurstRow, ...]:
    """Part B: the shared VIP burst under each preemption mechanism."""
    rows = []
    for mode, kwargs in BURST_MODES:
        apps, arrivals = build_burst()
        results, runtime = run_many(
            "Slate", apps, arrivals=arrivals, device=device, **kwargs
        )
        vip_times = [r.app_time for n, r in results.items() if ".vip" in n]
        stats = runtime.scheduler.env.stats
        rows.append(
            BurstRow(
                mode=mode,
                vip_mean=sum(vip_times) / len(vip_times),
                vip_p99=percentile(vip_times, 99.0),
                makespan=max(r.end for r in results.values()),
                preemptions=runtime.scheduler.preemptions,
                slice_preempts=stats.slice_preempts,
                resize_stall=_stall(results),
            )
        )
    return tuple(rows)


def run(device: DeviceConfig = TITAN_XP) -> RetreatVsSliceResult:
    return RetreatVsSliceResult(
        pairs=run_pairs(device=device), burst=run_burst(device=device)
    )


def format_result(result: RetreatVsSliceResult) -> str:
    pair_table = format_table(
        ["pair", "mode", "makespan (ms)", "resizes", "stall (us)"],
        [
            (
                r.pair,
                r.mode,
                f"{r.makespan * 1e3:.3f}",
                r.resizes,
                f"{r.resize_stall * 1e6:.1f}",
            )
            for r in result.pairs
        ],
        title="Part A — repartition stall: retreat vs slice-edge resizes",
    )
    burst_table = format_table(
        [
            "mode",
            "VIP mean (ms)",
            "VIP p99 (ms)",
            "makespan (ms)",
            "preempts",
            "slice preempts",
            "stall (us)",
        ],
        [
            (
                r.mode,
                f"{r.vip_mean * 1e3:.3f}",
                f"{r.vip_p99 * 1e3:.3f}",
                f"{r.makespan * 1e3:.3f}",
                r.preemptions,
                r.slice_preempts,
                f"{r.resize_stall * 1e6:.1f}",
            )
            for r in result.burst
        ],
        title="Part B — bursty VIP arrivals: drain-wait vs preemption",
    )
    retreat_stall = result.total_pair_stall("retreat")
    sliced_stall = result.total_pair_stall("slice-edge")
    saved = (
        (1.0 - sliced_stall / retreat_stall) * 100.0 if retreat_stall else 0.0
    )
    return (
        f"{pair_table}\n\n{burst_table}\n"
        f"slice-edge resizes cut repartition stall "
        f"{retreat_stall * 1e6:.0f}us -> {sliced_stall * 1e6:.0f}us "
        f"({saved:.0f}% less drain dead time; the residue is resizes that "
        "landed on a final slice already in flight); slice-granular "
        "preemption matches the retreat preempt's VIP latency with the "
        "whole-grid-VIP policy hook, and both beat drain-wait's p99."
    )
