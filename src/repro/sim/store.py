"""The FIFO queue between simulated components.

:class:`Store` is an unbounded FIFO of Python objects with event-based
``put``/``get``: the dispatch queue of the CUDA and MPS baseline runtimes.
A put fires at once; getters are served in arrival order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Store"]


class Store:
    """Unbounded FIFO store of arbitrary items."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Items put and not yet taken (empty while a getter waits).
        self.items: list[Any] = []
        self._getters: list[Event] = []

    def put(self, item: Any) -> Event:
        """Insert ``item``; the event fires at once, before the getter it serves."""
        event = Event(self.env).succeed()
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)
        return event

    def get(self) -> Event:
        """Remove and return the next item (as the event's value)."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self._getters.append(event)
        return event
