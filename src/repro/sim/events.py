"""Core event types for the discrete-event engine.

Events follow the simpy model: an :class:`Event` is created untriggered,
becomes *triggered* when given a value (and is placed on the environment's
queue), and becomes *processed* once the environment has invoked all of its
callbacks.  Processes (see :mod:`repro.sim.process`) suspend by yielding
events and are resumed from event callbacks.

Besides the plain :class:`Event`, two kinds exist: a :class:`Timeout`
fires after a delay, and an :class:`AllOf` (``a & b``) fires, with no
value, once all of its members have.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = [
    "AllOf",
    "Event",
    "EventPriority",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine itself."""


class EventPriority(enum.IntEnum):
    """Ordering of simultaneous events.

    ``URGENT`` events are processed before ordinary events scheduled at the
    same timestamp; :meth:`Environment.run` uses it so ``run(until=t)``
    stops the clock *before* the events at exactly ``t``.
    """

    URGENT = 0
    NORMAL = 1


#: Plain-int mirror of EventPriority.NORMAL for the inlined scheduling fast
#: paths below (heap entries compare ints, not enum members, on time ties).
_NORMAL = int(EventPriority.NORMAL)

_PENDING = object()


class Event:
    """A one-shot occurrence with a value and callbacks.

    Attributes
    ----------
    env:
        Owning :class:`~repro.sim.engine.Environment`.
    callbacks:
        Callables invoked with the event when it is processed.  ``None`` once
        the event has been processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # A failed event whose exception was never retrieved re-raises at the
        # end of the simulation unless defused (e.g. by a waiting process).
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value, or its exception if it failed."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined Environment.schedule(self) — succeed() is the hottest
        # trigger path (store operations, link turns, conditions); the delay
        # is always 0, so the event joins the same-timestamp lane (trigger
        # order, no heap operations — see Environment._fifo).
        self.env._fifo.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not re-raise."""
        self._defused = True

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The constructor bypasses both ``Event.__init__`` and
    ``Environment.schedule`` and pushes itself onto the queue directly.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        if delay < 0:
            raise ValueError(f"negative delay {delay} while scheduling {self!r}")
        if not delay:
            env._fifo.append(self)
            return
        env._eid += 1
        heappush(env._queue, (env.now + delay, _NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class AllOf(Event):
    """Succeeds, with no value, once all of the given events have succeeded.

    Fails as soon as any member fails (the member is defused).  The
    members' values stay on the members.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        events = list(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._remaining = len(events)

        # Immediately evaluate against already-processed events.
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not events:
            # Degenerate empty condition triggers immediately.
            self.succeed()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed()
