"""Core event types for the discrete-event engine.

Events follow the simpy model: an :class:`Event` is created untriggered,
becomes *triggered* when given a value (and is placed on the environment's
queue), and becomes *processed* once the environment has invoked all of its
callbacks.  Processes (see :mod:`repro.sim.process`) suspend by yielding
events and are resumed from event callbacks.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = [
    "AllOf",
    "ConditionValue",
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
        # trigger path (every resource grant and store operation); the delay
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

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

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

    Timeouts are the dominant event species in every simulation, so the
    constructor bypasses both ``Event.__init__`` and
    ``Environment.schedule`` and pushes itself onto the queue directly.
    Instances may additionally be recycled through the environment's free
    list (see :meth:`Environment.timeout`); the pooling contract is that a
    timeout is only reused once the engine holds the sole reference to it.
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
        heappush(env._queue, (env._now + delay, _NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class ConditionValue:
    """Mapping-like result of a condition event.

    Holds the values of the events that had triggered when the condition
    fired, preserving the order in which the events were passed to the
    condition.
    """

    __slots__ = ("_events",)

    def __init__(self, events: list[Event]) -> None:
        self._events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self._events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def keys(self) -> list[Event]:
        return list(self._events)

    def values(self) -> list[Any]:
        return [event.value for event in self._events]

    def items(self) -> list[tuple[Event, Any]]:
        return [(event, event.value) for event in self._events]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.items() == other.items()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConditionValue({self.items()!r})"


class AllOf(Event):
    """Triggers once all of the given events have triggered.

    Fails as soon as any member fails (the member is defused).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Immediately evaluate against already-processed events.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            # Degenerate empty condition triggers immediately.
            self.succeed(ConditionValue([]))

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            # _check only ever sees processed events (the constructor skips
            # pending ones; callbacks run once the engine detached them), so
            # every member has a value by now.
            self.succeed(ConditionValue(self._events))
