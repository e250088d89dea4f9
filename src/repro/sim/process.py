"""Processes: generators driven by the simulation environment.

A :class:`Process` wraps a generator.  The generator yields events; when a
yielded event is processed, the generator is resumed with the event's value,
or — if the event failed — the exception is thrown into it.  A process is
itself an event that triggers when the generator terminates, so processes can
wait on each other.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Process"]


class Process(Event):
    """An active simulation entity executing a generator.

    The process event succeeds with the generator's return value, or fails
    with any uncaught exception the generator raises.
    """

    __slots__ = ("_generator", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound methods cached once: _resume runs once per processed event,
        # so the attribute lookups add up across millions of events.
        self._send = generator.send
        self._throw = generator.throw

        # Kick the process off via an initialisation event so that it starts
        # executing from within the event loop, not synchronously here.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    # -- engine plumbing ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The caused exception is considered handled by
                    # delivering it into the process.
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                if not self.triggered:
                    self._ok = True
                    self._value = stop.value
                    self.env.schedule(self)
                return
            except BaseException as exc:
                if not self.triggered:
                    self._ok = False
                    self._value = exc
                    self.env.schedule(self)
                    return
                raise

            # Fetch callbacks straight away: the attribute access doubles as
            # the event type check (anything without ``callbacks`` is not an
            # event), replacing isinstance + access on the per-yield hot path.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                event = _failed_stub(self.env, exc)
                continue

            if callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                callbacks.append(self._resume)
                return

            # Event already processed: loop immediately with its outcome.
            event = next_event


def _failed_stub(env: "Environment", exc: BaseException) -> Event:
    """Create an already-'processed' failed event used for inline throws."""
    stub = Event(env)
    stub._ok = False
    stub._value = exc
    stub.callbacks = None
    return stub
