"""The vanilla CUDA baseline runtime.

Each host process gets its own context.  The device executes one context's
kernels at a time: kernels from different processes are serialized at kernel
granularity with a context-switch cost in between — the paper's description
of default CUDA multi-process behaviour ("allocates all SM resources to one
and switches to another the next time", §V-A2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.config import CostModel, DeviceConfig, HostConfig, TITAN_XP
from repro.cuda.context import CudaContext
from repro.cuda.memory_manager import DeviceMemoryManager, DevicePointer
from repro.gpu.device import ExecutionMode, KernelCounters, SimulatedGPU
from repro.gpu.pcie import PcieLink
from repro.kernels.kernel import KernelSpec
from repro.sim import Environment, Event, Store

__all__ = ["LaunchTicket", "VanillaCudaRuntime", "CudaSession"]


@dataclass
class LaunchTicket:
    """One enqueued kernel launch and its lifecycle events."""

    spec: KernelSpec
    context: CudaContext
    done: Event
    enqueued_at: float
    started_at: Optional[float] = None
    counters: Optional[KernelCounters] = None
    seq: int = field(default_factory=itertools.count().__next__)


class CudaSession:
    """Per-process view of the runtime (one context)."""

    def __init__(self, runtime: "VanillaCudaRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.context = CudaContext(runtime.memory, owner=name)
        self._pending: list[LaunchTicket] = []

    # Each method is a process generator so applications `yield from` it.

    def malloc(self, nbytes: int) -> Generator:
        """cudaMalloc: allocate device memory."""
        yield from self.runtime.api_call_cost()
        return self.context.alloc(nbytes)

    def free(self, ptr: DevicePointer) -> Generator:
        """cudaFree."""
        yield from self.runtime.api_call_cost()
        self.context.free(ptr)

    def memcpy_h2d(self, nbytes: float) -> Generator:
        """cudaMemcpy host -> device."""
        yield from self.runtime.api_call_cost()
        yield from self.runtime.pcie.transfer(nbytes)

    def memcpy_d2h(self, nbytes: float) -> Generator:
        """cudaMemcpy device -> host."""
        yield from self.runtime.api_call_cost()
        yield from self.runtime.pcie.transfer(nbytes)

    def launch(self, spec: KernelSpec) -> Generator:
        """Asynchronous kernel launch; returns a :class:`LaunchTicket`."""
        yield from self.runtime.api_call_cost()
        ticket = LaunchTicket(
            spec=spec,
            context=self.context,
            done=self.runtime.env.event(),
            enqueued_at=self.runtime.env.now,
        )
        self._pending.append(ticket)
        yield self.runtime.submit(ticket)
        return ticket

    def synchronize(self) -> Generator:
        """cudaDeviceSynchronize: wait for all of this session's launches."""
        yield from self.runtime.api_call_cost()
        pending = [t.done for t in self._pending if not t.done.triggered]
        if pending:
            yield self.runtime.env.all_of(pending)
        self._pending = [t for t in self._pending if not t.done.processed]

    def close(self) -> None:
        """Destroy the process's context and free its memory."""
        self.context.destroy()


class VanillaCudaRuntime:
    """Baseline runtime: per-process contexts, kernel-granularity slicing."""

    name = "CUDA"

    def __init__(
        self,
        env: Environment,
        device: DeviceConfig = TITAN_XP,
        host: HostConfig = HostConfig(),
        costs: CostModel = CostModel(),
    ) -> None:
        self.env = env
        self.device = device
        self.costs = costs
        self.gpu = SimulatedGPU(env, device, costs)
        self.pcie = PcieLink(env, host)
        self.memory = DeviceMemoryManager(device.dram_capacity)
        self._queue: Store = Store(env)
        self._last_context: Optional[CudaContext] = None
        self.context_switches = 0
        env.process(self._dispatch_loop())

    # -- session management ------------------------------------------------

    def create_session(self, name: str) -> CudaSession:
        """Open a per-process session (its own CUDA context)."""
        return CudaSession(self, name)

    def api_call_cost(self) -> Generator:
        """Vanilla CUDA API calls go straight to the driver (no relay)."""
        return
        yield  # pragma: no cover - generator marker

    def submit(self, ticket: LaunchTicket) -> Event:
        """Enqueue a launch for the device dispatcher."""
        return self._queue.put(ticket)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> Generator:
        """Serialize launches, time-slicing between contexts.

        Kernels from different processes (contexts) time-slice with a
        context-switch cost; each launch gets the whole SM array.
        """
        while True:
            ticket: LaunchTicket = yield self._queue.get()
            if (
                self._last_context is not None
                and ticket.context is not self._last_context
            ):
                self.context_switches += 1
                yield self.env.timeout(self.costs.context_switch_overhead)
            self._last_context = ticket.context
            yield self.env.timeout(self.costs.kernel_launch_overhead)
            ticket.started_at = self.env.now
            handle = self.gpu.launch(
                ticket.spec.work(),
                sm_ids=range(0, self.device.num_sms),
                mode=ExecutionMode.HARDWARE,
            )
            counters = yield handle.done
            ticket.counters = counters
            ticket.done.succeed(counters)
