"""Device and simulation configuration.

The default device mirrors the paper's testbed: an NVIDIA Titan Xp
(GP102, Pascal) — 30 SMs, 12 GB GDDR5X, ~547 GB/s peak DRAM bandwidth,
128 FP32 cores per SM at ~1.58 GHz.

The per-SM memory issue limit (``sm_bw_limit``) is calibrated so that a
purely memory-bound kernel saturates device bandwidth at ~9 SMs, matching
the paper's Figure 1 (Stream read bandwidth flattens from 9 SMs onward).

This module also owns the persistent-cache settings shared by the profiler
and the experiment layer (see :mod:`repro.cache`): where cached results
live, whether caching is enabled, and the :func:`fingerprint` function that
turns device/cost-model/kernel configurations into stable cache keys so a
changed configuration can never be served a stale result.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "DeviceConfig",
    "HostConfig",
    "CostModel",
    "TITAN_XP",
    "default_device",
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "cache_dir",
    "cache_enabled",
    "fingerprint",
]

#: Environment variable overriding where cached profiles/results are kept.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set to ``1``/``true``/``yes`` to disable all persistent caching.
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"


def cache_enabled() -> bool:
    """Whether persistent caching is enabled (default: yes)."""
    return os.environ.get(CACHE_DISABLE_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def cache_dir() -> Path:
    """Root directory for persistent caches.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro-slate``
    (falling back to ``~/.cache/repro-slate``).
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-slate"


def _canonical(obj: Any) -> Any:
    """A JSON-serializable, order-stable rendering of ``obj`` for hashing.

    Dataclasses are tagged with their class name so two configs with equal
    field values but different types (e.g. a DeviceConfig and a look-alike)
    fingerprint differently.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__class__": type(obj).__name__,
            **{f.name: _canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset, range)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_canonical(v) for v in items]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of a sequence of configuration objects.

    Accepts (nested) dataclasses, enums, containers and scalars.  Floats
    round-trip through JSON's shortest-repr encoding, so any numeric change
    — however small — yields a different fingerprint.
    """
    payload = json.dumps(
        [_canonical(p) for p in parts], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

GIGA = 1e9
MEGA = 1e6
KILO = 1e3


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of a simulated GPU device."""

    name: str = "TITAN Xp"
    num_sms: int = 30
    clock_hz: float = 1.582e9
    cores_per_sm: int = 128
    #: FP32 FLOP/s available on one SM (cores * 2 ops for FMA * clock).
    #: Derived in __post_init__ if left as None.
    sm_flops: Optional[float] = None
    #: Peak DRAM bandwidth of the device (bytes/s).
    dram_bandwidth: float = 547.6 * GIGA
    #: Peak L2-level access bandwidth (bytes/s); L2 hits are served at this
    #: rate rather than DRAM's.  GP102's L2 can sustain well above DRAM.
    l2_bandwidth: float = 1100.0 * GIGA
    #: Maximum rate at which a single SM can issue memory traffic towards the
    #: L2/DRAM (bytes/s).  547.6/9 ≈ 60.8 GB/s reproduces Fig. 1 saturation.
    sm_bw_limit: float = 60.8 * GIGA
    #: Device memory capacity (bytes).
    dram_capacity: int = 12 * 1024**3
    l2_capacity: int = 3 * 1024**2
    #: Per-SM occupancy limits (Pascal GP102).
    max_threads_per_sm: int = 2048
    max_blocks_per_sm: int = 32
    max_warps_per_sm: int = 64
    registers_per_sm: int = 65536
    shared_mem_per_sm: int = 96 * 1024
    max_threads_per_block: int = 1024
    warp_size: int = 32
    #: Register allocation granularity (registers are allocated per warp in
    #: multiples of this many registers on Pascal).
    register_alloc_unit: int = 256
    #: Shared memory allocation granularity (bytes).
    shared_mem_alloc_unit: int = 256

    def __post_init__(self) -> None:
        if self.sm_flops is None:
            object.__setattr__(
                self, "sm_flops", self.cores_per_sm * 2.0 * self.clock_hz
            )

    @property
    def device_flops(self) -> float:
        """Aggregate FP32 FLOP/s across all SMs."""
        return self.sm_flops * self.num_sms

    def with_sms(self, num_sms: int) -> "DeviceConfig":
        """A copy of this config with a different SM count."""
        return replace(self, num_sms=num_sms)


@dataclass(frozen=True)
class HostConfig:
    """Host side of the testbed (Xeon E5-2670 v2-class node)."""

    name: str = "Intel Xeon E5-2670"
    num_cores: int = 20
    #: Effective host<->device transfer bandwidth (bytes/s); PCIe 3.0 x16.
    pcie_bandwidth: float = 12.0 * GIGA
    #: Fixed per-transfer latency (s).
    pcie_latency: float = 10e-6


@dataclass(frozen=True)
class CostModel:
    """Software overhead constants used across the runtimes.

    All values are simulated seconds unless stated otherwise.  They are
    order-of-magnitude calibrated against the paper's §V-D overhead study:
    client-daemon communication ≈ 4% of application time and code injection
    plus NVRTC compilation ≈ 1.5% for ~30 s application runs.
    """

    #: Hardware cost of dispatching one thread block to an SM slot (the
    #: gigathread engine's setup work: program the block, init registers).
    #: The dispatcher pipelines, so the marginal per-block cost is small.
    block_launch_overhead: float = 0.15e-6
    #: Kernel-grid launch overhead (driver + front-end), per kernel launch.
    kernel_launch_overhead: float = 8e-6
    #: Round-trip latency a worker sees for one task-queue pull (atomicAdd
    #: on a global word + broadcast of the result to the block).
    atomic_latency: float = 0.8e-6
    #: Serialized service time of the atomic unit itself: queue pulls from
    #: all workers are serialized at this rate (global throughput cap).
    #: L2 atomics on one address retire roughly once per few cycles, so the
    #: cap only binds for pathological worker-count x block-time combos; the
    #: per-worker cost a pull adds is ``atomic_latency`` above.
    atomic_service_time: float = 5e-9
    #: DRAM efficiency loss when multiple kernels' access streams interleave
    #: at the memory controller (row-buffer locality destroyed, more bank
    #: conflicts).  A kernel's effective DRAM efficiency is scaled by
    #: ``1 - penalty * other_traffic_fraction``.  This is what makes blind
    #: co-scheduling of two memory-intensive kernels lose — the empirical
    #: basis of Table I's solo cells.
    dram_interference_penalty: float = 0.30
    #: Fraction of load/store instructions Slate avoids executing thanks to
    #: persistent workers (block setup loads issued once per worker instead
    #: of once per user block); calibrated against Table IV's −9%.
    slate_ldst_saving: float = 0.07
    #: Context-switch cost when vanilla CUDA time-slices between processes
    #: (state swap plus the scheduling bubble around it).
    context_switch_overhead: float = 150e-6
    #: How long the Slate scheduler waits after a completion before growing
    #: the surviving kernel onto the freed SMs.  In looped workloads the
    #: partner's next launch arrives within this window, so the survivor is
    #: spared a pointless grow-then-shrink retreat cycle.
    grow_grace: float = 200e-6
    #: One named-pipe command round trip between a Slate client and daemon.
    pipe_roundtrip: float = 35e-6
    #: Shared-buffer handoff cost (mapping, bookkeeping) per data transfer.
    shared_buffer_overhead: float = 20e-6
    #: FLEX scan + code injection per kernel source (first launch only).
    code_injection_time: float = 0.35e-3
    #: NVRTC compilation of an injected kernel (first launch only).
    nvrtc_compile_time: float = 0.6e-3
    #: MPS daemon relay cost per API call.
    mps_relay_overhead: float = 25e-6
    #: Fixed application setup time (context creation etc.).
    app_setup_time: float = 4e-3
    #: Time for the Slate daemon to evaluate the scheduling decision.
    schedule_decision_time: float = 4e-6
    #: Latency for a retreat signal to reach running workers and for them to
    #: drain their current task (one task's worth of work bounded below).
    retreat_latency: float = 15e-6
    #: Gap between consecutive slices of a sliced launch (Kernelet-style
    #: dispatch, see ``repro/slate/slicing.py``).  Back-to-back sub-grid
    #: launches on one stream skip most of the per-kernel front-end work
    #: (no new context, parameters already staged), so this is well below
    #: ``kernel_launch_overhead``.
    slice_dispatch_overhead: float = 2e-6


#: The paper's evaluation device.
TITAN_XP = DeviceConfig()

#: A Volta-generation data-center part, for the paper's claim that "as a
#: software-based solution, Slate works on most GPU systems" (§VII).  More
#: SMs and HBM2 bandwidth shift saturation knees but not the mechanisms.
TESLA_V100 = DeviceConfig(
    name="Tesla V100",
    num_sms=80,
    clock_hz=1.53e9,
    cores_per_sm=64,
    dram_bandwidth=900.0 * GIGA,
    l2_bandwidth=2100.0 * GIGA,
    # HBM2 saturates at roughly 16 SMs of streaming demand.
    sm_bw_limit=56.3 * GIGA,
    dram_capacity=16 * 1024**3,
    l2_capacity=6 * 1024**2,
    shared_mem_per_sm=96 * 1024,
)


def default_device() -> DeviceConfig:
    """The device used by experiments unless overridden (Titan Xp)."""
    return TITAN_XP
