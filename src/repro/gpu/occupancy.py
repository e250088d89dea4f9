"""CUDA occupancy calculator.

Determines how many thread blocks of a kernel can be resident on one SM
simultaneously, limited by threads, warps, blocks, registers, and shared
memory — the quantity Slate uses to size its persistent worker set ("Slate
always sets the size of workers as the maximum number of thread blocks that
the designated SMs can support", §III-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.config import DeviceConfig

__all__ = [
    "BlockResources",
    "OccupancyReport",
    "OccupancyResult",
    "analyze",
    "occupancy",
    "occupancy_cache_info",
    "occupancy_curve",
    "reset_occupancy_cache",
]


@dataclass(frozen=True)
class BlockResources:
    """Per-block resource footprint of a kernel."""

    threads_per_block: int
    registers_per_thread: int = 32
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if self.registers_per_thread < 0:
            raise ValueError("registers_per_thread must be >= 0")
        if self.shared_mem_per_block < 0:
            raise ValueError("shared_mem_per_block must be >= 0")


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy computation for one SM."""

    blocks_per_sm: int
    #: Which limit bound the result: "threads", "warps", "blocks",
    #: "registers", or "shared_mem".
    limiter: str
    warps_per_block: int

    @property
    def threads_per_sm(self) -> int:
        return self.blocks_per_sm * self.warps_per_block * 32

    def occupancy_fraction(self, device: DeviceConfig) -> float:
        """Active warps over the SM's warp capacity, in [0, 1]."""
        active_warps = self.blocks_per_sm * self.warps_per_block
        return min(1.0, active_warps / device.max_warps_per_sm)


def _round_up(value: int, granularity: int) -> int:
    if granularity <= 1:
        return value
    return ((value + granularity - 1) // granularity) * granularity


def _limits(device: DeviceConfig, block: BlockResources) -> tuple[int, dict[str, int]]:
    """Warps per block, and the blocks per SM each resource allows alone.

    Raises ``ValueError`` when one block exceeds a device limit.
    """
    if block.threads_per_block > device.max_threads_per_block:
        raise ValueError(
            f"block of {block.threads_per_block} threads exceeds device limit "
            f"{device.max_threads_per_block}"
        )

    warps_per_block = math.ceil(block.threads_per_block / device.warp_size)

    limits: dict[str, int] = {}
    limits["blocks"] = device.max_blocks_per_sm
    limits["threads"] = device.max_threads_per_sm // (warps_per_block * device.warp_size)
    limits["warps"] = device.max_warps_per_sm // warps_per_block

    if block.registers_per_thread > 0:
        regs_per_warp = _round_up(
            block.registers_per_thread * device.warp_size, device.register_alloc_unit
        )
        regs_per_block = regs_per_warp * warps_per_block
        if regs_per_block > device.registers_per_sm:
            raise ValueError(
                f"block needs {regs_per_block} registers, SM has "
                f"{device.registers_per_sm}"
            )
        limits["registers"] = device.registers_per_sm // regs_per_block

    if block.shared_mem_per_block > 0:
        smem = _round_up(block.shared_mem_per_block, device.shared_mem_alloc_unit)
        if smem > device.shared_mem_per_sm:
            raise ValueError(
                f"block needs {smem} bytes shared memory, SM has "
                f"{device.shared_mem_per_sm}"
            )
        limits["shared_mem"] = device.shared_mem_per_sm // smem
    return warps_per_block, limits


@lru_cache(maxsize=1024)
def occupancy(device: DeviceConfig, block: BlockResources) -> OccupancyResult:
    """Max resident blocks of ``block`` on one SM of ``device``.

    Both arguments are frozen dataclasses and the computation is pure, so
    results are ``lru_cache``d per ``(device, block)`` pair (the hot
    callers — launch, dispatch, prediction, tuning — see the same handful
    of pairs millions of times on long traces).  Unlaunchable blocks raise
    and are deliberately never cached.

    Raises
    ------
    ValueError
        If a single block exceeds an SM's total resources (unlaunchable).
    """
    warps_per_block, limits = _limits(device, block)
    limiter, blocks = min(limits.items(), key=lambda kv: (kv[1], kv[0]))
    if blocks < 1:
        raise ValueError(f"kernel cannot fit on an SM (limited by {limiter})")
    return OccupancyResult(blocks_per_sm=blocks, limiter=limiter, warps_per_block=warps_per_block)


@dataclass(frozen=True)
class OccupancyReport:
    """Full occupancy analysis for one kernel (calculator-style)."""

    result: OccupancyResult
    #: Limit imposed by each resource independently (blocks per SM).
    limits: dict[str, int]
    occupancy_fraction: float
    #: Resident blocks gained by relaxing the binding limit one step
    #: (e.g. 8 fewer registers per thread, 1KB less shared memory).
    headroom_hint: str


def analyze(device: DeviceConfig, block: BlockResources) -> OccupancyReport:
    """Occupancy report with per-resource limits and a tuning hint.

    The analogue of NVIDIA's occupancy calculator output: how many blocks
    each resource would allow on its own, which one binds, and what small
    change would unlock more residency.
    """
    result = occupancy(device, block)
    _, limits = _limits(device, block)

    limiter = result.limiter
    if limiter == "registers":
        hint = (
            f"reduce registers_per_thread below "
            f"{block.registers_per_thread} to raise residency"
        )
    elif limiter == "shared_mem":
        hint = (
            f"reduce shared_mem_per_block below "
            f"{block.shared_mem_per_block} bytes to raise residency"
        )
    elif limiter in ("threads", "warps"):
        hint = "use smaller thread blocks to pack more blocks per SM"
    else:
        hint = "at the hardware block cap; only bigger blocks change residency"

    return OccupancyReport(
        result=result,
        limits=limits,
        occupancy_fraction=result.occupancy_fraction(device),
        headroom_hint=hint,
    )


def occupancy_cache_info() -> dict[str, int]:
    """Cache counters of :func:`occupancy`."""
    info = occupancy.cache_info()
    return {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}


def reset_occupancy_cache() -> None:
    """Drop :func:`occupancy`'s cache and zero its counters."""
    occupancy.cache_clear()


def occupancy_curve(
    device: DeviceConfig,
    threads_per_block: int,
    registers_per_thread: int = 32,
    shared_mem_per_block: int = 0,
) -> dict[int, float]:
    """Occupancy fraction vs block size (multiples of the warp size).

    Sweeps block sizes from one warp up to ``threads_per_block`` and
    reports the achieved warp-occupancy fraction — the classic calculator
    curve for picking a block size.
    """
    if threads_per_block < device.warp_size:
        raise ValueError("threads_per_block must be at least one warp")
    curve: dict[int, float] = {}
    for threads in range(device.warp_size, threads_per_block + 1, device.warp_size):
        try:
            result = occupancy(
                device,
                BlockResources(threads, registers_per_thread, shared_mem_per_block),
            )
        except ValueError:
            curve[threads] = 0.0
            continue
        curve[threads] = result.occupancy_fraction(device)
    return curve
