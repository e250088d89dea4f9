"""Multi-GPU Slate: a daemon per device plus workload-aware placement.

A natural extension of the paper ("Slate ... provides a platform for
future GPU multiprocessing research", §VII): a node with several GPUs runs
one Slate daemon per device, and a placement layer decides which device a
new client lands on.  Three policies:

``round-robin``
    Devices in turn — the baseline any launcher gets for free.
``least-loaded``
    The device with the fewest active client sessions.
``class-aware``
    Use the kernel-intensity classes (the same Table I machinery that
    drives co-scheduling *within* a device) to steer tenants toward
    devices whose residents they complement: an L_C kernel goes where a
    saturating M_M tenant leaves SMs idle; a second memory hog goes to an
    empty device instead of fighting the first one's DRAM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.config import CostModel, DeviceConfig, HostConfig, TITAN_XP
from repro.kernels.kernel import KernelSpec
from repro.sim import Environment
from repro.slate.daemon import SlateRuntime, SlateSession
from repro.slate.placement import ShardView, choose_shard
from repro.slate.policy import SchedulingPolicy, make_policy
from repro.slate.profiler import offline_profile

__all__ = ["SlateCluster", "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("round-robin", "least-loaded", "class-aware")


@dataclass
class _DeviceState:
    runtime: SlateRuntime
    #: session name -> intensity class of its hinted kernel (if known).
    residents: dict[str, object] = field(default_factory=dict)


class SlateCluster:
    """N Slate daemons (one per device) behind a placement policy."""

    def __init__(
        self,
        env: Environment,
        num_devices: int = 2,
        device: DeviceConfig = TITAN_XP,
        host: HostConfig = HostConfig(),
        costs: CostModel = CostModel(),
        policy=None,
        placement: str = "class-aware",
        **runtime_kwargs,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {placement!r}; known: {PLACEMENT_POLICIES}"
            )
        if isinstance(policy, SchedulingPolicy) and num_devices > 1:
            # A policy instance is stateful and binds to ONE scheduler;
            # pass the name (or a PolicyTable) so each daemon builds its own.
            raise ValueError(
                "cannot share one SchedulingPolicy instance across "
                f"{num_devices} devices; pass the policy name instead"
            )
        self.env = env
        self.placement = placement
        #: The scheduling-policy spec (name/table/instance), forwarded to
        #: every per-device daemon; each daemon constructs its own instance.
        self.policy = policy
        #: Policy view used for class-aware placement compatibility.
        self._placement_policy = make_policy(policy)
        self.device = device
        #: Extra per-daemon knobs (e.g. ``log_limit``/``rate_trace_limit``
        #: for streamed million-launch traces) forwarded verbatim.
        self._devices = [
            _DeviceState(
                runtime=SlateRuntime(
                    env,
                    device=device,
                    host=host,
                    costs=costs,
                    policy=policy,
                    **runtime_kwargs,
                )
            )
            for _ in range(num_devices)
        ]
        self._rr = itertools.cycle(range(num_devices))
        #: session name -> device index (for tests/diagnostics).
        self.placements: dict[str, int] = {}

    # -- introspection -----------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self._devices)

    @property
    def costs(self) -> CostModel:
        """The per-daemon cost model (uniform across devices)."""
        return self._devices[0].runtime.costs

    def runtime(self, index: int) -> SlateRuntime:
        return self._devices[index].runtime

    def load(self, index: int) -> int:
        return len(self._devices[index].residents)

    # -- placement -----------------------------------------------------------

    def preload_profiles(self, specs: list[KernelSpec]) -> None:
        """Seed every device's profile table (offline profiling)."""
        for state in self._devices:
            state.runtime.preload_profiles(specs)

    def _class_of(self, spec: KernelSpec):
        table = self._devices[0].runtime.profiles
        profile = table.get(spec.name)
        if profile is None:
            profile = offline_profile(spec, self.device)
            for state in self._devices:
                state.runtime.profiles.put(spec.name, profile)
        return profile.intensity

    def _pick_device(self, spec_hint: Optional[KernelSpec]) -> int:
        if self.placement == "round-robin":
            return next(self._rr)
        if self.placement == "least-loaded" or spec_hint is None:
            # class-aware without a hint degrades to least-loaded.
            return min(range(self.num_devices), key=self.load)

        # Contention-penalized least-loaded scoring over device snapshots:
        # the same policy surface (SchedulingPolicy.placement_score, via
        # the canonical order-insensitive PolicyTable.mutual_corun) the
        # serving router uses for shard placement.
        views = [
            ShardView(
                ident=i,
                residents=tuple(state.residents.values()),
                load=float(len(state.residents)),
            )
            for i, state in enumerate(self._devices)
        ]
        return choose_shard(
            self._placement_policy, views, self._class_of(spec_hint)
        ).shard

    # -- sessions -----------------------------------------------------------

    def create_session(
        self, name: str, spec_hint: Optional[KernelSpec] = None
    ) -> SlateSession:
        """Open a session, placed per the cluster policy.

        ``spec_hint`` tells class-aware placement which kernel the client
        will run (clients know; schedulers in datacenters ask).  The
        returned session behaves exactly like a single-device one; closing
        it releases the placement slot.
        """
        index = self._pick_device(spec_hint)
        state = self._devices[index]
        session = state.runtime.create_session(name)
        self.placements[name] = index
        state.residents[name] = (
            self._class_of(spec_hint) if spec_hint is not None else None
        )
        if state.residents[name] is None:
            del state.residents[name]

        original_close = session.close

        def close_and_release() -> None:
            original_close()
            state.residents.pop(name, None)

        session.close = close_and_release  # type: ignore[method-assign]
        return session
