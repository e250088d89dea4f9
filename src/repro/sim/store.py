"""Message-passing stores used for queues between simulated components.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
event-based ``put``/``get`` — the substrate for Slate's per-process kernel
queues, daemon command pipes, and the device-side task queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Store", "StorePut", "StoreGet"]


class StorePut(Event):
    """Pending ``put`` operation; fires once the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.item = item


class StoreGet(Event):
    """Pending ``get`` operation; fires with the retrieved item."""

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False


class Store:
    """FIFO store of arbitrary items with optional capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event fires when the store has room."""
        event = StorePut(self.env, item)
        # Fast path: nobody queued ahead and room available — accept the
        # item directly; only fall into the dispatch loop when a blocked
        # getter may now be servable.
        if not self._putters and len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            if self._getters:
                self._dispatch()
        else:
            self._putters.append(event)
            self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Remove and return the next item (as the event's value)."""
        event = StoreGet(self.env)
        # Fast path mirror of put(): items on hand and no getter queued
        # ahead — serve immediately, then unblock putters if space freed.
        if not self._getters and self.items:
            event.succeed(self.items.pop(0))
            if self._putters:
                self._dispatch()
        else:
            self._getters.append(event)
            self._dispatch()
        return event

    # -- internals ---------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters:
                put = self._putters[0]
                if put.triggered or self._do_put(put):
                    self._putters.pop(0)
                    progressed = True
                else:
                    break
            while self._getters:
                get = self._getters[0]
                if get.triggered:
                    self._getters.pop(0)
                    progressed = True
                    continue
                if self._do_get(get):
                    self._getters.pop(0)
                    progressed = True
                else:
                    break
