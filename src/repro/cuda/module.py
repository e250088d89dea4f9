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
        self.total_compile_time = 0.0
        self.total_injection_time = 0.0

    def compile(self, inject: bool = True) -> Generator:
        """Process generator: compile one module.

        ``inject`` adds the FLEX-scan/code-injection cost — the Slate path;
        plain module loads skip it.
        """
        duration = self.costs.nvrtc_compile_time
        if inject:
            duration += self.costs.code_injection_time
            self.total_injection_time += self.costs.code_injection_time
        yield self.env.timeout(duration)
        self.compile_count += 1
        self.total_compile_time += self.costs.nvrtc_compile_time
