"""The MPS server runtime and client sessions.

Architecture (mirrors NVIDIA's): a daemon owns a single device context;
client processes connect and relay every API call through it (paying
``mps_relay_overhead``).  Kernels from all clients funnel into one queue;
the dispatcher launches the next kernel as soon as the current one enters
its *tail* — the leftover policy's occupancy slots freeing up — so
consecutive kernels overlap only in their drain windows.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import CostModel, DeviceConfig, HostConfig, TITAN_XP
from repro.cuda.context import CudaContext
from repro.cuda.memory_manager import DeviceMemoryManager, DevicePointer
from repro.cuda.runtime import CudaSession, LaunchTicket
from repro.gpu.device import ExecutionMode, SimulatedGPU
from repro.gpu.pcie import PcieLink
from repro.sim import Environment, Event, Store

__all__ = ["MpsRuntime", "MpsSession"]


class MpsSession(CudaSession):
    """A client process connected to the MPS server.

    Its context is the *server's* (context funneling, §IV-A), so no
    per-session context is built; the session tracks its own pointers so
    teardown frees only its share.  Every other call is
    :class:`~repro.cuda.runtime.CudaSession`'s, relayed through
    :meth:`MpsRuntime.api_call_cost`.
    """

    def __init__(self, runtime: "MpsRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.context = runtime.server_context
        self._pending: list[LaunchTicket] = []
        self._pointers: list[DevicePointer] = []

    def malloc(self, nbytes: int) -> Generator:
        ptr = yield from super().malloc(nbytes)
        self._pointers.append(ptr)
        return ptr

    def free(self, ptr: DevicePointer) -> Generator:
        yield from self.runtime.api_call_cost()
        self._pointers.remove(ptr)
        self.context.free(ptr)

    def close(self) -> None:
        """Disconnect: free this client's allocations from the server."""
        for ptr in self._pointers:
            self.context.free(ptr)
        self._pointers.clear()


class MpsRuntime:
    """The MPS control daemon + device dispatcher."""

    name = "MPS"

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
        self.server_context = CudaContext(self.memory, owner="mps-server")
        self._queue: Store = Store(env)
        self.relayed_calls = 0
        self.tail_overlaps = 0
        #: Dispatches that did not block (the running kernel underfilled
        #: the device, leaving leftover slots for the next kernel).
        self.leftover_coruns = 0
        env.process(self._dispatch_loop())

    def create_session(self, name: str) -> MpsSession:
        """Connect a client process to the server."""
        return MpsSession(self, name)

    def api_call_cost(self) -> Generator:
        """Every client call is relayed through the MPS daemon."""
        self.relayed_calls += 1
        yield self.env.timeout(self.costs.mps_relay_overhead)

    def submit(self, ticket: LaunchTicket) -> Event:
        return self._queue.put(ticket)

    def _dispatch_loop(self) -> Generator:
        """The leftover policy, both of its faces.

        A kernel whose grid *fills* the device leaves no occupancy slots,
        so the next kernel is only admitted when the running one enters its
        drain tail — the consecutive execution the paper observed for its
        large benchmarks.  A kernel whose grid *underfills* the device
        (fewer resident blocks than slots) leaves leftover SMs immediately,
        and the hardware does place the next kernel's blocks there — so
        small kernels genuinely co-run under MPS.
        """
        prev_done: Optional[Event] = None
        while True:
            ticket: LaunchTicket = yield self._queue.get()
            yield self.env.timeout(self.costs.kernel_launch_overhead)
            ticket.started_at = self.env.now
            n = self.device.num_sms
            work = ticket.spec.work()
            handle = self.gpu.launch(work, mode=ExecutionMode.HARDWARE)
            if prev_done is not None and not prev_done.triggered:
                self.tail_overlaps += 1
            # A plain ``done`` callback, as the Slate scheduler's: a spawned
            # waiter would cost an initialisation and an exit event.
            handle.done.callbacks.append(
                lambda ev, ticket=ticket: self._finish(ticket, ev._value)
            )
            prev_done = ticket.done
            # SMs this kernel's grid actually occupies.
            used_sms = min(
                n, -(-handle.parallelism // handle.blocks_per_sm)
            )
            free_sms = n - used_sms
            if free_sms > 0:
                # Leftover slots exist from the start: shrink this kernel's
                # placement to what it uses and admit the next immediately.
                self.leftover_coruns += 1
                continue
            # Device full: block until occupancy slots begin to free (the
            # drain tail), then admit the next kernel.
            yield handle.tail_started

    def _finish(self, ticket: LaunchTicket, counters) -> None:
        ticket.counters = counters
        ticket.done.succeed(counters)
