"""Kernel profiling and the daemon's profile table (§IV-B).

"The daemon profiles kernels at their first time run, and saves the profile
data in the kernel profile table.  The daemon references the profile data
online to decide if it should run the kernels solo or concurrently."

A profile records the solo rates (GFLOP/s, memory bandwidth), the derived
intensity class, and the *memory throttle fraction*, from which the
scheduler estimates how many SMs the kernel needs before extra SMs stop
helping (its bandwidth saturation point — the Figure 1 insight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.cache import JsonCache
from repro.config import CostModel, DeviceConfig, TITAN_XP
from repro.gpu.device import ExecutionMode, KernelCounters, SimulatedGPU
from repro.kernels.kernel import KernelSpec
from repro.slate.classify import IntensityClass, classify
from repro.sim import Environment

__all__ = [
    "KernelProfile",
    "ProfileCache",
    "ProfileTable",
    "PROFILE_SIMULATIONS",
    "configure_profile_cache",
    "default_profile_cache",
    "reset_profile_cache",
    "offline_profile",
    "profile_from_counters",
]


@dataclass(frozen=True)
class KernelProfile:
    """Solo-run profile of one kernel under Slate scheduling."""

    name: str
    gflops: float
    mem_bw: float
    throttle_fraction: float
    intensity: IntensityClass
    elapsed: float

    def saturation_sms(self, device: DeviceConfig = TITAN_XP) -> int:
        """SMs beyond which this kernel gains (almost) nothing.

        A kernel throttled to fraction ``t`` of its demand was over-
        provisioned by ``1/(1-t)``: it reaches the same bandwidth with
        ``ceil(num_sms * (1-t))`` SMs (Fig. 1's knee).  Unthrottled kernels
        scale to the whole device.
        """
        effective = device.num_sms * (1.0 - self.throttle_fraction)
        return max(1, min(device.num_sms, math.ceil(effective)))


def profile_from_counters(
    counters: KernelCounters,
    device: DeviceConfig = TITAN_XP,
    basis: str = "device",
) -> KernelProfile:
    """Build a profile from a completed execution's counters."""
    gflops = counters.gflops
    bw = counters.l2_throughput
    return KernelProfile(
        name=counters.name,
        gflops=gflops,
        mem_bw=bw,
        throttle_fraction=counters.mem_throttle_fraction,
        intensity=classify(gflops, bw, device, basis=basis),
        elapsed=counters.elapsed,
    )


class _SimulationCounter:
    """Counts how many profiling *simulations* actually ran.

    Cache hits do not increment it, so a warm-cache battery can assert it
    performed zero offline-profiling work.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> int:
        """Zero the counter; returns the value it held."""
        held, self.value = self.value, 0
        return held


#: Global count of offline-profiling simulations executed in this process.
PROFILE_SIMULATIONS = _SimulationCounter()


def _profile_to_payload(profile: KernelProfile) -> dict:
    return {
        "name": profile.name,
        "gflops": profile.gflops,
        "mem_bw": profile.mem_bw,
        "throttle_fraction": profile.throttle_fraction,
        "intensity": profile.intensity.value,
        "elapsed": profile.elapsed,
    }


def _profile_from_payload(raw: dict) -> KernelProfile:
    return KernelProfile(
        name=raw["name"],
        gflops=float(raw["gflops"]),
        mem_bw=float(raw["mem_bw"]),
        throttle_fraction=float(raw["throttle_fraction"]),
        intensity=IntensityClass(raw["intensity"]),
        elapsed=float(raw["elapsed"]),
    )


class ProfileCache:
    """On-disk, cross-process version of the daemon's profile table.

    Where :class:`ProfileTable` lives inside one daemon, this cache
    persists offline profiles across experiments and pytest sessions, the
    way the paper's daemon keeps profiles "obtained from its previous
    runs".  Entries are keyed by the *full* kernel spec plus the device
    and cost-model fingerprints, so a recalibrated device or a kernel
    whose behaviour drifts (same name, different spec) never reuses a
    stale profile.
    """

    def __init__(self, root=None, enabled: Optional[bool] = None) -> None:
        self._store = JsonCache("profiles", root=root, enabled=enabled)

    @staticmethod
    def _key(spec, device, costs, task_size, basis):
        return ("offline_profile", spec, device, costs, task_size, basis)

    def get(
        self,
        spec: KernelSpec,
        device: DeviceConfig,
        costs: CostModel,
        task_size: int,
        basis: str,
    ) -> Optional[KernelProfile]:
        payload = self._store.get(*self._key(spec, device, costs, task_size, basis))
        if payload is None:
            return None
        try:
            return _profile_from_payload(payload)
        except (KeyError, ValueError, TypeError):
            return None

    def put(
        self,
        profile: KernelProfile,
        spec: KernelSpec,
        device: DeviceConfig,
        costs: CostModel,
        task_size: int,
        basis: str,
    ) -> None:
        self._store.put(
            _profile_to_payload(profile),
            *self._key(spec, device, costs, task_size, basis),
        )

    def __len__(self) -> int:
        return len(self._store)


_default_cache: Optional[ProfileCache] = None


def default_profile_cache() -> ProfileCache:
    """The process-wide profile cache used by :func:`offline_profile`."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ProfileCache()
    return _default_cache


def configure_profile_cache(root=None, enabled: Optional[bool] = None) -> ProfileCache:
    """Replace the default profile cache (tests, custom cache locations)."""
    global _default_cache
    _default_cache = ProfileCache(root=root, enabled=enabled)
    return _default_cache


def reset_profile_cache() -> None:
    """Forget the default cache; the next use rebuilds it from the environment.

    Unlike :func:`configure_profile_cache`, this defers reading
    ``$REPRO_CACHE_DIR``/``$REPRO_NO_CACHE`` until the cache is next
    needed — the right teardown for tests that patch those variables.
    """
    global _default_cache
    _default_cache = None


def offline_profile(
    spec: KernelSpec,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = CostModel(),
    task_size: int = 10,
    basis: str = "device",
    cache: Optional[ProfileCache] = None,
) -> KernelProfile:
    """Profile ``spec`` by a solo Slate-scheduled run on a private device.

    This is the paper's "offline profiling" path: a dedicated simulation
    runs the kernel alone on all SMs and records its counters.  The
    simulation is deterministic, so its result is cached on disk (keyed by
    the kernel/device/cost-model fingerprint) and reused across runs;
    pass ``cache`` to use a specific :class:`ProfileCache`, or set
    ``REPRO_NO_CACHE=1`` to always re-simulate.
    """
    if cache is None:
        cache = default_profile_cache()
    cached = cache.get(spec, device, costs, task_size, basis)
    if cached is not None:
        return cached
    PROFILE_SIMULATIONS.value += 1
    env = Environment()
    gpu = SimulatedGPU(env, device, costs)
    handle = gpu.launch(
        spec.work(), mode=ExecutionMode.SLATE, task_size=task_size, inject_frac=0.03
    )
    counters = env.run(until=handle.done)
    profile = profile_from_counters(counters, device, basis=basis)
    cache.put(profile, spec, device, costs, task_size, basis)
    return profile


class ProfileTable:
    """The daemon's kernel profile store."""

    def __init__(self, device: DeviceConfig = TITAN_XP, basis: str = "device") -> None:
        self.device = device
        self.basis = basis
        self._profiles: dict[Hashable, KernelProfile] = {}
        self.lookups = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[KernelProfile]:
        self.lookups += 1
        profile = self._profiles.get(key)
        if profile is None:
            self.misses += 1
        return profile

    def put(self, key: Hashable, profile: KernelProfile) -> None:
        self._profiles[key] = profile

    def record_run(self, key: Hashable, counters: KernelCounters) -> KernelProfile:
        """First-run profiling: derive and store a profile from counters."""
        profile = profile_from_counters(counters, self.device, basis=self.basis)
        self._profiles[key] = profile
        return profile

    def __contains__(self, key: Hashable) -> bool:
        return key in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)
