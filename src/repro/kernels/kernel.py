"""Kernel specifications: grid geometry plus per-block resource demands.

A :class:`KernelSpec` is the user-facing description of a kernel launch —
the analogue of ``kernel<<<grid, block>>>(args)``.  It carries the 1D/2D
grid (the paper's transformation flattens 2D grids to 1D), the per-block
resource model consumed by the GPU simulator, and default repetition counts
used by the evaluation harness (the paper loops each kernel so a run takes
~30 s; we scale that down but keep the looped structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.cache import LocalityModel
from repro.gpu.device import KernelWork
from repro.gpu.occupancy import BlockResources

__all__ = ["GridDim", "KernelSpec"]


@dataclass(frozen=True)
class GridDim:
    """A 1D or 2D CUDA grid (``gridDim.z`` is always 1 in the paper)."""

    x: int
    y: int = 1

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1:
            raise ValueError(f"grid dimensions must be >= 1, got ({self.x}, {self.y})")

    @property
    def num_blocks(self) -> int:
        return self.x * self.y

    @property
    def is_2d(self) -> bool:
        return self.y > 1

    def linear_index(self, bx: int, by: int) -> int:
        """Row-major linearization of a block coordinate."""
        if not (0 <= bx < self.x and 0 <= by < self.y):
            raise ValueError(f"block ({bx}, {by}) outside grid ({self.x}, {self.y})")
        return by * self.x + bx

    def coords(self, linear: int) -> tuple[int, int]:
        """Inverse of :meth:`linear_index`."""
        if not 0 <= linear < self.num_blocks:
            raise ValueError(f"linear index {linear} outside grid of {self.num_blocks}")
        return linear % self.x, linear // self.x


@dataclass(frozen=True)
class KernelSpec:
    """Full description of a benchmark kernel.

    The per-block demand fields mirror :class:`repro.gpu.device.KernelWork`;
    :meth:`work` converts.  ``default_reps`` is the number of launches the
    evaluation harness loops to emulate the paper's ~30 s timed runs.
    """

    name: str
    grid: GridDim
    block: BlockResources
    flops_per_block: float
    bytes_per_block: float
    locality: LocalityModel = field(default_factory=LocalityModel)
    dram_efficiency: float = 1.0
    min_block_time: float = 0.0
    time_cv: float = 0.05
    instr_per_block: float = 0.0
    ldst_per_block: float = 0.0
    default_reps: int = 20
    #: Device bytes this kernel's buffers occupy (for the CUDA memory
    #: manager) and bytes transferred host<->device per application run.
    device_footprint: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0

    def work(self) -> KernelWork:
        """The device-facing workload description.

        Both sides are frozen, so the conversion is computed once per spec
        and the same :class:`KernelWork` instance is returned thereafter —
        downstream identity-keyed caches (the device's per-allocation
        records) rely on repeated launches of one spec sharing their work.
        """
        cached = self.__dict__.get("_work")
        if cached is None:
            cached = KernelWork(
                name=self.name,
                num_blocks=self.grid.num_blocks,
                block=self.block,
                flops_per_block=self.flops_per_block,
                bytes_per_block=self.bytes_per_block,
                locality=self.locality,
                dram_efficiency=self.dram_efficiency,
                min_block_time=self.min_block_time,
                time_cv=self.time_cv,
                instr_per_block=self.instr_per_block,
                ldst_per_block=self.ldst_per_block,
            )
            object.__setattr__(self, "_work", cached)
        return cached

    def scaled(self, factor: float) -> "KernelSpec":
        """A copy with the grid's x dimension scaled by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        new_x = max(1, round(self.grid.x * factor))
        return replace(self, grid=GridDim(new_x, self.grid.y))

    @property
    def total_flops(self) -> float:
        return self.flops_per_block * self.grid.num_blocks

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_block * self.grid.num_blocks
