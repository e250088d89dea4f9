"""The Slate device-side task queue (``slateIdx`` / ``slateMax``).

Workers pull ``SLATE_ITERS`` user blocks per atomic increment; the queue
survives worker relaunches (dynamic resizing) because ``slateIdx`` is global
state: a relaunched worker set resumes exactly where the previous one
stopped (§III-C).  ``retreat`` tells workers to exit after the task they
are currently executing.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.obs.registry import registry as obs_registry

__all__ = ["SlateQueue", "Task", "TaskQueueConfigError"]


class TaskQueueConfigError(ValueError):
    """A degenerate task-queue configuration (zero-block grid, non-positive
    task size).  Subclasses :class:`ValueError` so existing callers that
    guard with ``except ValueError`` keep working."""


class Task(NamedTuple):
    """A group of consecutive user blocks pulled by one worker."""

    start: int
    count: int

    @property
    def block_range(self) -> range:
        return range(self.start, self.start + self.count)


class SlateQueue:
    """The global task queue for one transformed kernel execution."""

    def __init__(self, num_blocks: int, task_size: int) -> None:
        if num_blocks < 1:
            raise TaskQueueConfigError(
                f"num_blocks must be >= 1, got {num_blocks} (a zero-block "
                "kernel has no work to queue)"
            )
        if task_size < 1:
            raise TaskQueueConfigError(
                f"task_size must be >= 1, got {task_size}"
            )
        #: slateMax: one past the last user block index.
        self.slate_max = num_blocks
        #: A task size larger than the grid is defined behaviour: the single
        #: pull is clamped to the grid (Listing 2's ``min`` against
        #: ``slateMax``), exactly as one oversized final task would be.
        self.task_size = task_size
        #: slateIdx: next unclaimed user block index.
        self.slate_idx = 0
        self.retreat = False
        self.pulls = 0
        reg = obs_registry()
        self._m_pulls = reg.counter("taskqueue.pulls")
        self._m_retreats = reg.counter("taskqueue.retreats")
        self._m_clears = reg.counter("taskqueue.clears")

    @property
    def exhausted(self) -> bool:
        return self.slate_idx >= self.slate_max

    @property
    def remaining_blocks(self) -> int:
        return max(0, self.slate_max - self.slate_idx)

    @property
    def remaining_tasks(self) -> int:
        return -(-self.remaining_blocks // self.task_size)

    def pull(self) -> Task | None:
        """Atomically claim the next task (None when queue is drained).

        Mirrors Listing 2: ``globIdx = atomicAdd(&slateIdx, SLATE_ITERS)``
        with the iteration count clamped at ``slateMax`` for the last task.

        While the retreat flag is raised no task is claimed (``None``, the
        same signal as a drained queue): a worker that checks the flag after
        finishing its task must exit, not race the relaunch for one more
        pull.  Callers relaunching workers lower the flag first
        (:meth:`clear_retreat`, Listing 3's loop).
        """
        if self.retreat or self.exhausted:
            return None
        start = self.slate_idx
        count = min(self.task_size, self.slate_max - start)
        self.slate_idx = start + self.task_size
        self.pulls += 1
        self._m_pulls.inc()
        return Task(start, count)

    def signal_retreat(self) -> None:
        """Raise the retreat flag; workers exit after their current task."""
        self.retreat = True
        self._m_retreats.inc()

    def clear_retreat(self) -> None:
        """Lower the flag before relaunching workers (Listing 3's loop)."""
        self.retreat = False
        self._m_clears.inc()
