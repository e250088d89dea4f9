"""Simulated GPU hardware substrate.

This package models the device resources that the paper identifies as the
contended ones — SM compute slots, L2 cache, and DRAM bandwidth — plus the
hardware mechanisms Slate works with or around: the gigathread block
dispatcher, occupancy limits, and the serialized atomic unit that Slate's
software task queue hammers.

Two executors are provided:

* :mod:`repro.gpu.device` — the epoch-fluid executor used by all runtimes.
  Kernel progress is continuous between *epochs* (any change in the set of
  running kernels, their SM allocations, or their achieved rates); at each
  epoch boundary per-kernel block-completion rates are re-derived from a
  roofline service time and a water-filled DRAM bandwidth allocation.
* :mod:`repro.gpu.detailed` — a per-block discrete-event executor used to
  cross-validate the fluid model on small grids.
"""

from repro.gpu.occupancy import (
    BlockResources,
    OccupancyResult,
    occupancy,
    occupancy_cache_info,
    reset_occupancy_cache,
)
from repro.gpu.memory import FlowDemand, waterfill
from repro.gpu.rates import (
    RateInput,
    RateOutput,
    SchedulingMode,
    configure_rates_cache,
    derive_rates,
    rates_cache_info,
    reset_rates_cache,
)
from repro.gpu.cache import LocalityModel, dram_fraction, l2_pressure
from repro.gpu.device import (
    ExecutionMode,
    KernelExecution,
    KernelCounters,
    SimulatedGPU,
)

__all__ = [
    "BlockResources",
    "ExecutionMode",
    "FlowDemand",
    "KernelCounters",
    "KernelExecution",
    "LocalityModel",
    "OccupancyResult",
    "RateInput",
    "RateOutput",
    "SchedulingMode",
    "SimulatedGPU",
    "configure_rates_cache",
    "derive_rates",
    "dram_fraction",
    "l2_pressure",
    "occupancy",
    "occupancy_cache_info",
    "rates_cache_info",
    "reset_occupancy_cache",
    "reset_rates_cache",
    "waterfill",
]
