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

:func:`slice_plan` is the partitioning: slice ``i`` covers blocks
``[i * size, min((i + 1) * size, num_blocks))``.  It is the
``slateIdx``/``slateMax`` block-range machinery
(:class:`repro.slate.taskqueue.SlateQueue`) with ``task_size`` set to the
slice size: a slice is just a coarse task, claimed in order, clamped at
the grid boundary — so the tiling invariant (slices exactly cover
``[0, num_blocks)`` with no gap or overlap) is the same Listing-2
arithmetic the per-worker task queue already pins, and the property
suite checks the plan against a queue drained pull by pull.

The dispatch side lives in :class:`repro.gpu.device.SimulatedGPU`
(``launch_sliced`` / :class:`~repro.gpu.device.SlicedExecution`), which
computes a launch's :func:`slice_plan` once and indexes it per slice
(each dispatch still counts one ``taskqueue.pulls``); policy
control (slice size per launch, preempt-at-edge approval) enters through
:meth:`repro.slate.policy.SchedulingPolicy.slice_quota` and
:meth:`~repro.slate.policy.SchedulingPolicy.preempt_at_slice`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.slate.taskqueue import TaskQueueConfigError

__all__ = [
    "KernelSlice",
    "SliceConfigError",
    "DEFAULT_SLICES_PER_GRID",
    "default_slice_blocks",
    "slice_plan",
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


@functools.lru_cache(maxsize=256)
def slice_plan(num_blocks: int, slice_blocks: int) -> tuple[KernelSlice, ...]:
    """The tiling of an ``num_blocks`` grid into ``slice_blocks`` slices.

    Consecutive slices of ``slice_blocks`` blocks, the last one clamped at
    the grid; a slice size larger than the grid gives one slice covering
    everything.  A non-positive grid or slice size is a
    :class:`SliceConfigError`.  The tuple is immutable, so repeated
    launches of one grid share it (memoized: building one costs ~1 µs per
    slice, a lookup ~0.2 µs).
    """
    if num_blocks < 1:
        raise SliceConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    if slice_blocks < 1:
        raise SliceConfigError(f"slice_blocks must be >= 1, got {slice_blocks}")
    return tuple(
        KernelSlice(i, start, min(slice_blocks, num_blocks - start))
        for i, start in enumerate(range(0, num_blocks, slice_blocks))
    )
