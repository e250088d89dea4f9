"""SM partition selection for corun pairs.

Given two kernels the policy has decided to co-run, choose the disjoint SM
split.  The heuristic follows the paper's resource argument (§II, Fig. 1):
the more memory-intensive kernel claims the SMs it needs to sustain its
bandwidth — its *saturation point* — and the lighter kernel rides the
remainder.  Both sides are guaranteed a minimum share so neither starves.

For saturating kernels (BS: ~12 SMs) this costs the heavy kernel nothing
while the light kernel gets most of the device; for non-saturating kernels
(GS, MM, TR) the heavy kernel keeps nearly everything and the light kernel
gets the minimum — it finishes inside the heavy kernel's shadow and grows
when the partner completes (dynamic resizing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.slate.profiler import KernelProfile

__all__ = ["Partition", "choose_partition", "MIN_SHARE"]

#: Minimum SMs either side of a corun partition receives.
MIN_SHARE = 3


@dataclass(frozen=True)
class Partition:
    """A disjoint SM split: primary gets [0, split), secondary the rest."""

    primary_sms: tuple[int, ...]
    secondary_sms: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.primary_sms), len(self.secondary_sms)


def _intensity_rank(profile: KernelProfile) -> tuple[float, float]:
    """Sort key: memory demand first (paper's priority), then compute."""
    return (profile.mem_bw, profile.gflops)


def choose_partition(
    a: KernelProfile,
    b: KernelProfile,
    device: DeviceConfig = TITAN_XP,
    min_share: int = MIN_SHARE,
) -> tuple[Partition, KernelProfile, KernelProfile]:
    """Split the device between profiles ``a`` and ``b``.

    Returns ``(partition, primary, secondary)`` where *primary* is the more
    resource-intensive kernel (assigned ``partition.primary_sms``); on a
    tie, ``a``.
    """
    if min_share < 1 or 2 * min_share > device.num_sms:
        raise ValueError(f"min_share {min_share} infeasible for {device.num_sms} SMs")
    if _intensity_rank(b) > _intensity_rank(a):
        primary, secondary = b, a
    else:
        primary, secondary = a, b

    if primary.mem_bw == secondary.mem_bw and primary.gflops == secondary.gflops:
        # Identical kernels: split evenly.
        split = device.num_sms // 2
    else:
        needed = primary.saturation_sms(device)
        split = max(min_share, min(device.num_sms - min_share, needed))

    partition = Partition(
        primary_sms=tuple(range(0, split)),
        secondary_sms=tuple(range(split, device.num_sms)),
    )
    return partition, primary, secondary
