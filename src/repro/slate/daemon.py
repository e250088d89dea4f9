"""The Slate daemon (server) and client sessions (§IV-A).

Client-server structure: clients link the Slate API library; the daemon —
a host-side runtime — funnels every client's CUDA operations into a single
device context, performs code injection + NVRTC compilation on first launch
of each kernel (cached thereafter), and drives the workload-aware scheduler.

Per-call costs follow the paper's channel design: API commands travel over
a named pipe (one round trip each), bulk data moves through shared buffers
(fixed mapping cost, no payload copy), and the daemon keeps one session per
client process, "alive until the process completes" (§IV-A2).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config import CostModel, DeviceConfig, HostConfig, TITAN_XP
from repro.cuda.context import CudaContext
from repro.cuda.memory_manager import DeviceMemoryManager, DevicePointer
from repro.cuda.module import NvrtcCompiler
from repro.gpu.device import SimulatedGPU
from repro.gpu.pcie import PcieLink
from repro.kernels.kernel import KernelSpec
from repro.obs import trace as obs_trace
from repro.obs.registry import registry as obs_registry
from repro.slate.ipc import NamedPipe, SharedBufferChannel
from repro.slate.profiler import ProfileTable, offline_profile
from repro.slate.scheduler import DEFAULT_TASK_SIZE, SlateScheduler, SlateTicket
from repro.slate.source import KernelSource, inject, scan_kernels
from repro.sim import Environment

__all__ = ["SlateArgumentError", "SlateRuntime", "SlateSession"]


class SlateArgumentError(ValueError):
    """A kernel argument failed the daemon's address translation."""


def _pseudo_source(spec: KernelSpec) -> str:
    """Canonical CUDA-like source for a benchmark kernel.

    Our workload models are analytic, but the daemon's injection path is
    textual: this template gives the scanner/injector a faithful artifact
    (1D or 2D built-in usage matching the spec's grid) and a stable cache
    key per kernel.
    """
    body_2d = "  const int col = blockIdx.x * blockDim.x + threadIdx.x;\n" \
              "  const int row = blockIdx.y * blockDim.y + threadIdx.y;\n" \
              "  if (row < n && col < n) { out[row * gridDim.x + col] = work(in, row, col); }\n"
    body_1d = "  const int i = blockIdx.x * blockDim.x + threadIdx.x;\n" \
              "  if (i < n) { out[i] = work(in, i); }\n"
    body = body_2d if spec.grid.is_2d else body_1d
    return (
        f"__global__ void {spec.name.lower()}_kernel(float* out, const float* in, int n)\n"
        "{\n" + body + "}\n"
    )


class SlateSession:
    """A client process connected to the Slate daemon.

    Mirrors the Slate API ("a wrapper for basic CUDA functions"):
    ``slateMalloc``, ``slateMemcpy``, ``slateLaunchKernel``,
    ``slateSynchronize`` — each relayed over the named pipe.
    """

    def __init__(self, runtime: "SlateRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.pipe = NamedPipe(runtime.env, runtime.costs)
        self.buffers = SharedBufferChannel(runtime.env, runtime.costs)
        self._pointers: list[DevicePointer] = []
        self._pending: list[SlateTicket] = []
        #: (client shared-buffer address -> GPU pointer) hash table entries.
        self.buffer_map: dict[int, DevicePointer] = {}
        self._addr_of: dict[int, int] = {}
        self._next_client_addr = 0x1000
        self.compile_time = 0.0

    # -- Slate API -----------------------------------------------------------

    def malloc(self, nbytes: int) -> Generator:
        """slateMalloc: shared buffer + device allocation + map entry.

        Returns the *client-side* buffer address (what a Slate client
        program holds); the daemon records the (address -> GPU pointer)
        association in its hash table and translates on every use
        (§IV-A1).  Use :meth:`device_pointer` to inspect the mapping.
        """
        yield self.pipe.command()
        yield self.buffers.handoff(nbytes)
        ptr = self.runtime.server_context.alloc(nbytes)
        self._pointers.append(ptr)
        addr = self._next_client_addr
        self._next_client_addr += ptr.size
        self.buffer_map[addr] = ptr
        self._addr_of[ptr.tag] = addr
        return ptr

    def device_pointer(self, client_addr: int) -> DevicePointer:
        """The daemon's hash-table lookup: client address -> GPU pointer."""
        try:
            return self.buffer_map[client_addr]
        except KeyError:
            raise SlateArgumentError(
                f"client address {client_addr:#x} is not a mapped Slate buffer"
            ) from None

    def translate_args(self, args) -> list[DevicePointer]:
        """Translate kernel arguments the way the daemon does for launch.

        Each argument may be a client address (int) or a
        :class:`DevicePointer` previously returned by :meth:`malloc`;
        anything else, or a pointer this session does not own (freed,
        foreign), is rejected — the guard that keeps one client from
        passing another client's buffers.
        """
        translated = []
        for arg in args:
            if isinstance(arg, int):
                ptr = self.device_pointer(arg)
            elif isinstance(arg, DevicePointer):
                ptr = arg
            else:
                raise SlateArgumentError(
                    f"kernel argument {arg!r} is neither a client address "
                    "nor a device pointer"
                )
            if ptr not in self._pointers:
                raise SlateArgumentError(
                    f"device pointer {ptr.tag} is not owned by session "
                    f"{self.name!r} (freed or foreign)"
                )
            translated.append(ptr)
        return translated

    def free(self, ptr: DevicePointer) -> Generator:
        """slateFree: drops the hash-table entry and the device memory."""
        yield self.pipe.command()
        self._pointers.remove(ptr)
        addr = self._addr_of.pop(ptr.tag, None)
        if addr is not None:
            self.buffer_map.pop(addr, None)
        self.runtime.server_context.free(ptr)

    def memcpy_h2d(self, nbytes: float) -> Generator:
        """slateMemcpy host->device via the shared buffer (no extra copy)."""
        yield self.pipe.command()
        yield self.buffers.handoff(nbytes)
        yield from self.runtime.pcie.transfer(nbytes)

    def memcpy_d2h(self, nbytes: float) -> Generator:
        """slateMemcpy device->host."""
        yield self.pipe.command()
        yield self.buffers.handoff(nbytes)
        yield from self.runtime.pcie.transfer(nbytes)

    def launch(
        self,
        spec: KernelSpec,
        task_size: int | None = None,
        priority: int = 0,
        args: "list | None" = None,
        deadline: float | None = None,
    ) -> Generator:
        """slateLaunchKernel: inject + compile on first use, then schedule.

        ``task_size`` of None uses the daemon default (10); a size below
        1 raises :class:`ValueError` here, before anything is queued.
        ``deadline`` is an absolute completion
        deadline (simulated seconds) consulted by deadline-aware policies;
        an infeasible one is rejected (the returned ticket's ``done`` event
        fails with :class:`repro.slate.policy.AdmissionRejected` and its
        ``rejected`` flag reads True).
        """
        if task_size is None:
            task_size = DEFAULT_TASK_SIZE
        elif task_size < 1:
            raise ValueError(f"task_size must be >= 1, got {task_size}")
        yield self.pipe.command()
        if args is not None:
            self.translate_args(args)
        if obs_trace.ENABLED:
            obs_trace.instant(
                "session.launch",
                self.runtime.env.now,
                "daemon",
                self.name,
                kernel=spec.name,
                priority=priority,
            )
        runtime = self.runtime
        env = runtime.env
        if spec.name not in runtime.injected_sources:
            t0 = env.now
            yield from runtime.prepare_kernel(spec)
            self.compile_time += env.now - t0
        yield env.timeout(runtime.costs.schedule_decision_time)
        ticket = SlateTicket(
            spec=spec,
            profile_key=spec.name,
            done=env.event(),
            enqueued_at=env.now,
            task_size=task_size,
            priority=priority,
            deadline=deadline,
        )
        self._pending.append(ticket)
        runtime.scheduler.submit(ticket)
        return ticket

    def synchronize(self) -> Generator:
        """slateSynchronize: wait for this session's outstanding launches.

        One outstanding launch is waited on directly; two or more through
        one ``all_of``.
        """
        yield self.pipe.command()
        pending = [t.done for t in self._pending if not t.done.triggered]
        if len(pending) == 1:
            yield pending[0]
        elif pending:
            yield self.runtime.env.all_of(pending)
        self._pending = [t for t in self._pending if not t.done.processed]

    @property
    def comm_time(self) -> float:
        """Total client-daemon communication time (Fig. 6 breakdown)."""
        return self.pipe.total_time + self.buffers.total_time

    def close(self) -> None:
        """End the session; frees this client's device allocations."""
        for ptr in list(self._pointers):
            self.runtime.server_context.free(ptr)
        self._pointers.clear()
        self.buffer_map.clear()


class SlateRuntime:
    """The Slate daemon: context funneling + injection + scheduling."""

    name = "Slate"

    def __init__(
        self,
        env: Environment,
        device: DeviceConfig = TITAN_XP,
        host: HostConfig = HostConfig(),
        costs: CostModel = CostModel(),
        policy=None,
        partition_strategy: str = "heuristic",
        enable_grow: bool = True,
        enable_preemption: bool = False,
        max_corun: int = 2,
        classification_basis: str = "device",
        log_limit: int | None = None,
        rate_trace_limit: int | None = None,
        slicing: bool = False,
        slice_blocks: int | None = None,
    ) -> None:
        self.env = env
        self.device = device
        self.costs = costs
        self.gpu = SimulatedGPU(env, device, costs, rate_trace_limit=rate_trace_limit)
        self.pcie = PcieLink(env, host)
        self.memory = DeviceMemoryManager(device.dram_capacity)
        self.server_context = CudaContext(self.memory, owner="slate-daemon")
        self.compiler = NvrtcCompiler(env, costs)
        self.profiles = ProfileTable(device, basis=classification_basis)
        self.scheduler = SlateScheduler(
            env,
            self.gpu,
            device,
            costs,
            policy=policy,
            profiles=self.profiles,
            partition_strategy=partition_strategy,
            enable_grow=enable_grow,
            enable_preemption=enable_preemption,
            max_corun=max_corun,
            log_limit=log_limit,
            slicing=slicing,
            slice_blocks=slice_blocks,
        )
        #: Scanned + injected sources by kernel name (the code cache).
        self.injected_sources: dict[str, str] = {}

    def create_session(self, name: str) -> SlateSession:
        """Open a session for a client process (kept until it completes)."""
        return SlateSession(self, name)

    def prepare_kernel(self, spec: KernelSpec) -> Generator:
        """Scan, inject and NVRTC-compile ``spec``'s kernel (cached)."""
        if spec.name in self.injected_sources:
            # Compiled image cached — free.
            return
        source_text = _pseudo_source(spec)
        kernels = scan_kernels(source_text)
        if not kernels:
            raise ValueError(f"no __global__ kernel found for {spec.name}")
        kernel: KernelSource = kernels[0]
        transformed = inject(kernel)
        t0 = self.env.now
        yield from self.compiler.compile()
        obs_registry().counter("daemon.compiles").inc()
        if obs_trace.ENABLED:
            obs_trace.complete(
                "compile",
                t0,
                self.env.now - t0,
                "daemon",
                "compile",
                kernel=spec.name,
            )
        self.injected_sources[spec.name] = transformed

    def preload_profiles(self, specs: list[KernelSpec]) -> None:
        """Seed the profile table by offline profiling (§III-B1).

        The paper allows profiles "obtained from its previous runs or
        offline profiling"; benchmarks use this to skip warm-up noise.
        """
        for spec in specs:
            if spec.name not in self.profiles:
                self.profiles.put(
                    spec.name,
                    offline_profile(
                        spec, self.device, self.costs, basis=self.profiles.basis
                    ),
                )
