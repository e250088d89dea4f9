"""Shared-resource primitive: a counted resource with FIFO granting.

A :class:`Resource` models a pool of identical service slots (e.g. the single
serialization point of a GPU atomic unit, or the PCIe copy engine).  Requests
are events; a process acquires a slot with::

    with resource.request() as req:
        yield req
        ...  # holding a slot

or manages the request/release pair explicitly.

Invariant (load-bearing for the fast paths below): the waiting queue is only
non-empty while every slot is held.  ``request`` therefore grants immediately
whenever a slot is free — no heap traffic — and ``release`` only needs to
re-grant when an actual holder departs.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.sim.events import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Resource", "Request", "Release"]


class Request(Event):
    """A pending or granted claim on a resource slot.

    Usable as a context manager: exiting the ``with`` block releases the slot
    (or cancels the claim if it was never granted).
    """

    __slots__ = ("resource", "key")

    def __init__(self, resource: "Resource", key) -> None:
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.key = key

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw the pending request."""
        self.resource.release(self)


class Release(Event):
    """Event that fires once a release has been applied (always immediate).

    Releases apply synchronously, so the event is created already processed
    (``callbacks is None``) instead of taking a round trip through the event
    queue; waiting on it resumes without consuming a simulation step.
    """

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False


class Resource:
    """A counted resource with FIFO granting.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of slots that may be held simultaneously.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._counter = itertools.count()
        # Min-heap of pending requests keyed by request sequence number.
        self._waiting: list[tuple] = []
        self._users: set[Request] = set()

    # -- introspection ---------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- operations ---------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event fires once the slot is granted."""
        req = Request(self, next(self._counter))
        if len(self._users) < self._capacity:
            # A free slot implies nobody is waiting (see module invariant):
            # grant without touching the heap.
            self._users.add(req)
            req.succeed(req)
        else:
            heappush(self._waiting, (req.key, req))
        return req

    def release(self, request: Request) -> Release:
        """Return a slot to the pool (or withdraw an ungranted request)."""
        users = self._users
        if request in users:
            users.discard(request)
            self._grant()
        else:
            # Withdraw from the waiting queue if still pending.  No re-grant
            # is needed: removing a waiter frees no slot.
            waiting = self._waiting
            for i, (_, pending) in enumerate(waiting):
                if pending is request:
                    waiting[i] = waiting[-1]
                    waiting.pop()
                    heapify(waiting)
                    break
        return Release(self.env)

    def _grant(self) -> None:
        waiting = self._waiting
        users = self._users
        capacity = self._capacity
        while waiting and len(users) < capacity:
            req = heappop(waiting)[1]
            users.add(req)
            req.succeed(req)
