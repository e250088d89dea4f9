"""CUDA contexts.

A context owns device allocations.  Vanilla CUDA gives each host process
its own context — the very thing that forces the hardware to time-slice
between processes.  MPS and Slate funnel many processes' work
into a single context, which is what unlocks concurrent kernels (§IV-A).
"""

from __future__ import annotations

import itertools

from repro.cuda.errors import CudaContextDestroyed
from repro.cuda.memory_manager import DeviceMemoryManager, DevicePointer

__all__ = ["CudaContext"]


class CudaContext:
    """A CUDA context: allocation namespace + liveness."""

    _ids = itertools.count(1)

    def __init__(self, memory: DeviceMemoryManager, owner: str = "") -> None:
        self.id = next(self._ids)
        self.owner = owner
        self._memory = memory
        self._allocations: list[DevicePointer] = []
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def _check_alive(self) -> None:
        if not self._alive:
            raise CudaContextDestroyed(f"context {self.id} ({self.owner}) destroyed")

    def alloc(self, nbytes: int) -> DevicePointer:
        self._check_alive()
        ptr = self._memory.alloc(nbytes)
        self._allocations.append(ptr)
        return ptr

    def free(self, ptr: DevicePointer) -> None:
        self._check_alive()
        self._allocations.remove(ptr)
        self._memory.free(ptr)

    @property
    def allocated_bytes(self) -> int:
        return sum(p.size for p in self._allocations)

    def destroy(self) -> None:
        """Tear down: frees all context allocations."""
        if not self._alive:
            return
        for ptr in list(self._allocations):
            self._memory.free(ptr)
        self._allocations.clear()
        self._alive = False
