"""NVRTC runtime-compilation cost model.

The Slate daemon rewrites kernel sources and loads them through the NVIDIA
Runtime Compiler; "a compiled kernel image can be further cached for later
use by the same user" (§IV-B).  We model compilation as a fixed time cost
per call; the daemon's code cache (``SlateRuntime.injected_sources``)
makes sure it is paid once per kernel.
"""

from __future__ import annotations

from typing import Generator

from repro.config import CostModel
from repro.sim import Environment

__all__ = ["NvrtcCompiler"]


class NvrtcCompiler:
    """Compile service with simulated time costs."""

    def __init__(self, env: Environment, costs: CostModel = CostModel()) -> None:
        self.env = env
        self.costs = costs
        self.compile_count = 0

    def compile(self) -> Generator:
        """Process generator: scan, inject and compile one module (the
        Slate path: NVRTC compile plus the FLEX-scan/code-injection cost)."""
        yield self.env.timeout(
            self.costs.nvrtc_compile_time + self.costs.code_injection_time
        )
        self.compile_count += 1
