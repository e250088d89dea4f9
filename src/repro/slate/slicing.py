"""Kernelet-style kernel slicing: sub-grid slices as the schedulable unit.

Slate's native resize mechanism is retreat → drain → relaunch: the workers
being displaced stall for a full drain window (``retreat_latency +
kernel_launch_overhead``) before the kernel runs again.  Kernelet
(PAPERS.md) shows the alternative: partition a launch's grid into *slices*
of consecutive thread blocks and dispatch them back to back.  Every slice
edge is then a free control point — an allocation change or a
high-priority arrival takes effect at the next edge, with no drain stall,
at the price of one small dispatch gap per slice plus each slice paying
its own ragged final wave.

:class:`KernelSlicer` owns the partitioning.  It deliberately reuses the
``slateIdx``/``slateMax`` block-range machinery
(:class:`repro.slate.taskqueue.SlateQueue`) with ``task_size`` set to the
slice size: a slice is just a coarse task, claimed in order, clamped at
the grid boundary — so the tiling invariant (slices exactly cover
``[0, num_blocks)`` with no gap or overlap) is the same Listing-2
arithmetic the per-worker task queue already pins.

The dispatch side lives in :class:`repro.gpu.device.SimulatedGPU`
(``launch_sliced`` / :class:`~repro.gpu.device.SlicedExecution`); policy
control (slice size per launch, preempt-at-edge approval) enters through
:meth:`repro.slate.policy.SchedulingPolicy.slice_quota` and
:meth:`~repro.slate.policy.SchedulingPolicy.preempt_at_slice`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Optional

from repro.slate.taskqueue import SlateQueue, TaskQueueConfigError

__all__ = [
    "KernelSlice",
    "KernelSlicer",
    "SliceConfigError",
    "DEFAULT_SLICES_PER_GRID",
    "default_slice_blocks",
]

#: Default target slice count when neither the CLI nor the policy fixes a
#: slice size: enough edges for resize/preemption to land promptly, few
#: enough that the per-slice dispatch gap and ragged tails stay small.
DEFAULT_SLICES_PER_GRID = 8


class SliceConfigError(TaskQueueConfigError):
    """A degenerate slicing configuration (non-positive slice size or an
    unsliceable zero-block grid).  Subclasses the task queue's typed error
    (and therefore :class:`ValueError`)."""


def default_slice_blocks(num_blocks: int, task_size: int = 1) -> int:
    """The scheduler's default slice size for an ``num_blocks`` grid.

    Aims for :data:`DEFAULT_SLICES_PER_GRID` slices but never slices finer
    than one worker task (``task_size``) — a slice smaller than a task
    would starve the persistent workers it feeds.
    """
    if num_blocks < 1:
        raise SliceConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    return max(max(1, task_size), -(-num_blocks // DEFAULT_SLICES_PER_GRID))


class KernelSlice(NamedTuple):
    """One contiguous run of user blocks dispatched as a unit."""

    index: int
    start: int
    count: int

    @property
    def block_range(self) -> range:
        return range(self.start, self.start + self.count)


class KernelSlicer:
    """Partition a launch's grid into consecutive sub-grid slices.

    A slice size larger than the grid is defined behaviour (one slice
    covering everything — the unsliced degenerate case the byte-identity
    tests pin); a non-positive slice size or grid is a
    :class:`SliceConfigError`.
    """

    def __init__(
        self,
        num_blocks: int,
        slice_blocks: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if num_blocks < 1:
            raise SliceConfigError(
                f"num_blocks must be >= 1, got {num_blocks}"
            )
        if slice_blocks < 1:
            raise SliceConfigError(
                f"slice_blocks must be >= 1, got {slice_blocks}"
            )
        self.num_blocks = num_blocks
        #: Effective slice size (clamped to the grid).
        self.slice_blocks = min(slice_blocks, num_blocks)
        #: slateIdx/slateMax machinery at slice granularity: a slice is a
        #: coarse task, so claiming and boundary clamping are Listing 2.
        self._queue = SlateQueue(num_blocks, self.slice_blocks, clock=clock)
        self._emitted = 0

    # -- introspection ---------------------------------------------------

    @property
    def num_slices(self) -> int:
        """Total slices this grid partitions into."""
        return math.ceil(self.num_blocks / self.slice_blocks)

    @property
    def slices_emitted(self) -> int:
        return self._emitted

    @property
    def exhausted(self) -> bool:
        return self._queue.exhausted

    @property
    def remaining_blocks(self) -> int:
        return self._queue.remaining_blocks

    @property
    def remaining_slices(self) -> int:
        return self._queue.remaining_tasks

    # -- slicing ---------------------------------------------------------

    def next_slice(self) -> Optional[KernelSlice]:
        """Claim the next slice in grid order (None once exhausted)."""
        task = self._queue.pull()
        if task is None:
            return None
        s = KernelSlice(self._emitted, task.start, task.count)
        self._emitted += 1
        return s

    def plan(self) -> list[KernelSlice]:
        """The full tiling, without consuming the slicer.

        Pure arithmetic over ``(num_blocks, slice_blocks)`` — the property
        suite asserts this list exactly tiles ``[0, num_blocks)``.
        """
        size = self.slice_blocks
        return [
            KernelSlice(
                index=i,
                start=i * size,
                count=min(size, self.num_blocks - i * size),
            )
            for i in range(self.num_slices)
        ]

    def __iter__(self) -> Iterator[KernelSlice]:
        while (s := self.next_slice()) is not None:
            yield s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<KernelSlicer {self.num_blocks} blocks / {self.slice_blocks} "
            f"per slice, {self.slices_emitted}/{self.num_slices} emitted>"
        )
