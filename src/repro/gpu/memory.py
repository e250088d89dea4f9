"""DRAM bandwidth arbitration: max-min fair (water-filling) allocation.

Concurrent kernels contend for device memory bandwidth.  We model DRAM as a
fluid resource shared among *flows* (one per running kernel).  Each flow has
a demand — the byte rate it would consume if bandwidth were unlimited, which
is itself capped by the number of SMs the kernel occupies times the per-SM
issue limit.  :func:`waterfill` allocates bandwidth max-min fairly: flows that
demand less than the fair share keep their full demand, and the surplus is
redistributed among the rest ("water-filling").

This is the standard fluid approximation for shared-memory-bandwidth
interference (cf. Eyerman & Eeckhout's system-throughput methodology) and it
reproduces the two behaviours the paper leans on:

* a single memory-bound kernel saturates DRAM once it holds enough SMs
  (Fig. 1: Stream flattens at 9 SMs), and
* two memory-hungry co-runners slow each other down, while a compute-heavy
  kernel paired with a memory-heavy one leaves both nearly unharmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FlowDemand", "waterfill"]

_EPS = 1e-12


@dataclass(frozen=True)
class FlowDemand:
    """One kernel's bandwidth demand.

    Attributes
    ----------
    key:
        Opaque identifier for the flow (kernel execution id).
    demand:
        Bytes/s the flow would consume if unconstrained (already capped by
        the flow's own issue ability).
    """

    key: object
    demand: float

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"negative demand {self.demand}")


def waterfill(demands: Sequence[FlowDemand], capacity: float) -> dict[object, float]:
    """Max-min fair allocation of ``capacity`` among ``demands``.

    Properties (tested):

    * each allocation is at most the flow's demand;
    * allocations sum to ``min(capacity, total demand)`` (work conservation);
    * if any flow is throttled, every throttled flow receives the same
      share, and that share is at least every satisfied flow's demand.
    """
    if capacity < 0:
        raise ValueError(f"negative capacity {capacity}")
    alloc: dict[object, float] = {}
    remaining = list(demands)
    budget = capacity

    for flow in remaining:
        if flow.key in alloc:
            raise ValueError(f"duplicate flow key {flow.key!r}")
        alloc[flow.key] = 0.0

    # Iteratively satisfy flows whose demand is below the current fair share.
    active = [f for f in remaining if f.demand > _EPS]
    for f in remaining:
        if f.demand <= _EPS:
            alloc[f.key] = 0.0
    while active:
        fair = budget / len(active)
        satisfied = [f for f in active if f.demand <= fair + _EPS]
        if not satisfied:
            # All remaining flows are throttled to the equal share.
            for f in active:
                alloc[f.key] = fair
            return alloc
        for f in satisfied:
            alloc[f.key] = f.demand
            budget -= f.demand
        active = [f for f in active if f.demand > fair + _EPS]
    return alloc
