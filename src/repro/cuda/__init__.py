"""CUDA-like runtime substrate.

Models the slice of the CUDA driver/runtime the paper's evaluation touches:
device memory allocation, host-device copies, kernel launch and
synchronization, per-process contexts, and NVRTC runtime compilation.

:class:`~repro.cuda.runtime.VanillaCudaRuntime` is the paper's first
baseline: "Vanilla CUDA uses time slicing, if there are multiple active
kernels, and allocates all SM resources to one and switches to another the
next time" (§V-A2).
"""

from repro.cuda.errors import CudaError, CudaInvalidValue, CudaOutOfMemory
from repro.cuda.memory_manager import DeviceMemoryManager, DevicePointer
from repro.cuda.context import CudaContext
from repro.cuda.module import NvrtcCompiler
from repro.cuda.runtime import LaunchTicket, VanillaCudaRuntime

__all__ = [
    "CudaContext",
    "CudaError",
    "CudaInvalidValue",
    "CudaOutOfMemory",
    "DeviceMemoryManager",
    "DevicePointer",
    "LaunchTicket",
    "NvrtcCompiler",
    "VanillaCudaRuntime",
]
