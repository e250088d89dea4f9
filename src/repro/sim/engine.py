"""The discrete-event simulation environment.

The :class:`Environment` owns the event queue and the simulated clock.  It is
deliberately close to simpy's core so the rest of the codebase can use
familiar idioms::

    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert env.now == 5 and p.value == "done"

Performance notes
-----------------
Every paper experiment is thousands of simulations, so the per-event cost
here multiplies into the whole evaluation's wall-clock.  Three fast paths
keep it low (see ``docs/api.md`` for the full contract):

* :meth:`Environment.run` inlines the hot loop — no per-event method call,
  no per-event exception control flow, and heap/stat references hoisted to
  locals.  The loop drains same-timestamp batches exactly like repeated
  :meth:`step` calls would (ordering is carried by the heap key), just
  without re-entering the interpreter's call machinery per event.
* :meth:`Environment.call_later` queues a plain ``fn(*args)`` callback
  with no event object at all: the device's and the scheduler's internal
  timers, which nothing else waits on, use it instead of a
  :class:`Timeout` plus a callbacks list.
* Delay-0 NORMAL triggers skip the heap: they join a same-timestamp FIFO
  lane (``Environment._fifo``) that replays the heap's order exactly.

Event ids come from one monotonically increasing counter that is never
reset, a plain Python int, so it cannot overflow or collide.

:attr:`Environment.stats` counts events processed and the queue's peak
size, so speedups (and regressions) are measurable.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import AllOf, Event, EventPriority, SimulationError, Timeout
from repro.sim.process import Process

__all__ = [
    "Environment",
    "EnvironmentStats",
    "StopSimulation",
    "EmptySchedule",
    "aggregate_stats",
    "reset_aggregate_stats",
]

_NORMAL = int(EventPriority.NORMAL)
#: A queued :meth:`Environment.call_later` call: ``(fn, args)``.  The run
#: loop tells it from an event by its type.
_Call = tuple


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at a target event."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class EnvironmentStats:
    """Engine observability counters.

    Attributes
    ----------
    events_processed:
        Events whose callbacks have been invoked, plus
        :meth:`Environment.call_later` calls made.  A kernel costs its
        completion timer, its tail timer (both ``call_later`` calls) and
        ``done``, plus ``tail_started`` only when something waits on it
        (otherwise it is marked processed in place); an interior slice of
        a sliced launch costs three calls (completion, tail and
        dispatch-gap timers) and fires no events of its own.
    heap_peak:
        Largest number of simultaneously pending events observed.
    rate_recomputes:
        Full rate re-derivations performed by :class:`~repro.gpu.device.SimulatedGPU`.
    waterfill_calls:
        :func:`~repro.gpu.memory.waterfill` invocations inside
        :func:`~repro.gpu.rates.derive_rates` (two per full derivation).
    rate_memo_hits / rate_memo_misses:
        Rate derivations served from the co-run-signature memo vs. full
        derivations (only lookups that were handed a stats object are
        counted here — every device epoch that re-derives, so
        ``hits + misses == rate_recomputes`` while the memo is on; the
        module-level :func:`~repro.gpu.rates.rates_cache_info` counts
        every lookup).
    epoch_marks / epoch_flushes:
        Device mutations deferred into a decision epoch vs. end-of-timestep
        epoch flushes actually performed (see
        :meth:`Environment.at_timestep_end` and ``docs/api.md``); the ratio
        ``marks / flushes`` is the average epoch batch size.  A kernel's
        finish is no mutation (it settled and left the active set at its
        tail entry): it settles nothing and neither marks nor flushes.
        A mark settles nothing either, and a flush settles only the
        kernels whose rate it changed (lazy progress, ``docs/api.md``).
    rate_scalar_evals:
        Full rate derivations (:mod:`repro.gpu.rates` has one evaluator).
    rate_vector_evals:
        Always 0 (there is one evaluator); kept because the end-to-end
        benchmark reads it as ``rates.vector_evals``.
    slice_dispatches / slice_preempts:
        Sub-grid slices dispatched by :meth:`~repro.gpu.device.SimulatedGPU.
        launch_sliced` and preemptions that took effect at a slice edge
        (Kernelet-style slicing; both stay 0 with slicing off — the
        default-path guard the differential lane checks).
    """

    __slots__ = (
        "events_processed",
        "heap_peak",
        "rate_recomputes",
        "waterfill_calls",
        "rate_memo_hits",
        "rate_memo_misses",
        "epoch_marks",
        "epoch_flushes",
        "rate_vector_evals",
        "rate_scalar_evals",
        "slice_dispatches",
        "slice_preempts",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for field in self.__slots__:
            setattr(self, field, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy of the counters as a plain dict."""
        return {field: getattr(self, field) for field in self.__slots__}

    def accumulate(self, before: dict[str, int], after: dict[str, int]) -> None:
        """Fold the delta between two snapshots into this instance.

        Monotonic counters add; ``heap_peak`` (a high-water mark) takes the
        max instead.
        """
        for field in self.__slots__:
            delta = after[field] - before[field]
            if field == "heap_peak":
                if after[field] > self.heap_peak:
                    self.heap_peak = after[field]
            elif delta:
                setattr(self, field, getattr(self, field) + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{f}={getattr(self, f)}" for f in self.__slots__)
        return f"EnvironmentStats({body})"


#: Process-wide accumulator: every Environment folds its counter deltas in
#: here when ``run()`` returns, so callers that never see the individual
#: environments (e.g. ``python -m repro experiments --profile``) can still
#: attribute engine work to wall-clock phases.
_AGGREGATE = EnvironmentStats()


def aggregate_stats() -> EnvironmentStats:
    """The process-wide stats accumulator (see ``--profile``)."""
    return _AGGREGATE


def reset_aggregate_stats() -> None:
    """Zero the process-wide accumulator."""
    _AGGREGATE.reset()


class Environment:
    """Discrete-event execution environment with a floating-point clock.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds by convention
        throughout this project).
    """

    __slots__ = (
        "now",
        "_queue",
        "_fifo",
        "_eoe_hooks",
        "_processing",
        "_eid",
        "stats",
        "_flushed",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time: a plain attribute (every layer reads it
        #: several times per launch), advanced only by the run loop.
        self.now = float(initial_time)
        #: Heap of ``(time, priority, eid, item)``: an item is an
        #: :class:`Event` or a ``(fn, args)`` pair from :meth:`call_later`.
        self._queue: list[tuple[float, int, int, "Event | _Call"]] = []
        #: Same-timestamp fast lane: every delay-0 NORMAL trigger lands here
        #: in trigger order instead of paying two heap operations.  Ordering
        #: stays identical to the heap-only engine because a NORMAL heap
        #: entry keyed at the current instant was necessarily scheduled at an
        #: *earlier* instant (delay > 0), i.e. before any event now in the
        #: lane was triggered — so draining heap-at-now before the lane
        #: replays the old event-id order exactly.  URGENT events always go
        #: through the heap and therefore still preempt the lane.
        self._fifo: "deque[Event | _Call]" = deque()
        #: End-of-timestep hooks: callbacks to run once the current instant
        #: has no events left, before the clock advances (decision epochs).
        self._eoe_hooks: list[Callable[[], None]] = []
        #: True while the engine is delivering event callbacks; epoch-aware
        #: components defer work only inside the loop (direct calls from
        #: test/driver code outside the engine keep immediate semantics).
        self._processing = False
        #: Monotonic event sequence number.  A plain Python int: it grows
        #: without bound (no overflow) and is never reset, so heap ordering
        #: stays total.
        self._eid = 0
        self.stats = EnvironmentStats()
        self._flushed = self.stats.snapshot()

    # -- clock & queue ---------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: EventPriority = EventPriority.NORMAL,
    ) -> None:
        """Place a triggered event on the queue ``delay`` into the future."""
        if delay < 0:
            raise ValueError(f"negative delay {delay} while scheduling {event!r}")
        if not delay and priority == _NORMAL:
            self._fifo.append(event)
            return
        self._eid += 1
        heappush(self._queue, (self.now + delay, priority, self._eid, event))

    def at_timestep_end(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` once the current instant has no events left.

        Hooks fire after every event scheduled for the current timestamp has
        been processed and before the clock advances (or the run loop
        returns control).  A hook may schedule new events — including at the
        current instant, in which case those events are processed and the
        remaining hooks re-run before time moves.  Hooks are one-shot:
        re-register every timestep.  This is the decision-epoch primitive
        (see ``docs/api.md``): the device defers rate recomputation here so
        N same-timestamp mutations cost one epoch, not N.
        """
        self._eoe_hooks.append(hook)

    def _run_hooks(self) -> None:
        hooks = self._eoe_hooks
        todo = hooks[:]
        hooks.clear()
        for hook in todo:
            hook()

    def peek(self) -> float:
        """Time of the next pending work item, or ``inf`` if none.

        Events triggered for the current instant (the same-timestamp lane)
        and pending end-of-timestep hooks report ``now``.
        """
        if self._fifo or self._eoe_hooks:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none.

        Pending end-of-timestep hooks run (at the current instant) before
        the clock is allowed to advance past them.
        """
        queue = self._queue
        fifo = self._fifo
        stats = self.stats
        pending = len(queue) + len(fifo)
        if pending > stats.heap_peak:
            stats.heap_peak = pending
        while True:
            if fifo:
                if queue and queue[0][0] <= self.now:
                    when, _, _, event = heappop(queue)
                    self.now = when
                else:
                    event = fifo.popleft()
                break
            if queue:
                if self._eoe_hooks and queue[0][0] > self.now:
                    self._run_hooks()
                    continue
                when, _, _, event = heappop(queue)
                self.now = when
                break
            if self._eoe_hooks:
                self._run_hooks()
                if queue or fifo:
                    continue
                # Hook-only step: the epoch flush ran but produced no new
                # events; report progress (peek() no longer says "now").
                return
            raise EmptySchedule()
        stats.events_processed += 1

        self._processing = True
        try:
            if type(event) is _Call:
                fn, args = event
                fn(*args)
                return
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        finally:
            self._processing = False

        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"event failed with non-exception {value!r}")

    # -- running -----------------------------------------------------------

    def run(self, until: "Event | float | int | None" = None) -> Any:
        """Run until the queue empties, a time is reached, or an event fires.

        ``until`` may be ``None`` (exhaust the queue), a number (advance the
        clock to that time), or an :class:`Event` (run until it is processed
        and return its value).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed.
                    if stop._ok:
                        return stop._value
                    raise stop._value
                stop.callbacks.append(self._stop_simulation)
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(f"until ({at}) is before current time ({self.now})")
                stop = Event(self)
                # Schedule with URGENT priority so the clock stops *before*
                # events at exactly `at` are processed (simpy semantics).
                stop._ok = True
                stop._value = None
                self.schedule(stop, delay=at - self.now, priority=EventPriority.URGENT)
                stop.callbacks.append(self._stop_simulation)

        stats = self.stats
        queue = self._queue
        fifo = self._fifo
        hooks = self._eoe_hooks
        call_type = _Call
        pop = heappop
        events = 0
        peak = stats.heap_peak
        try:
            self._processing = True
            pending = len(queue) + len(fifo)
            while pending or hooks:
                if pending > peak:
                    peak = pending
                # Pop order at one instant: heap entries keyed at `now`
                # (URGENT, then older NORMAL events — see `_fifo`), then the
                # same-timestamp lane in trigger order, then end-of-timestep
                # hooks; only once all three are empty does time advance.
                if fifo:
                    if queue and queue[0][0] <= self.now:
                        when, _, _, event = pop(queue)
                        self.now = when
                    else:
                        event = fifo.popleft()
                elif queue:
                    if hooks and queue[0][0] > self.now:
                        self._run_hooks()
                        pending = len(queue) + len(fifo)
                        continue
                    when, _, _, event = pop(queue)
                    self.now = when
                else:
                    self._run_hooks()
                    pending = len(queue) + len(fifo)
                    continue
                events += 1
                if type(event) is call_type:
                    fn, args = event
                    fn(*args)
                    pending = len(queue) + len(fifo)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"event failed with non-exception {value!r}"
                    )
                pending = len(queue) + len(fifo)
            if stop is not None and not stop.triggered and isinstance(until, Event):
                raise SimulationError(
                    "simulation ended before the awaited event triggered"
                )
            return None
        except StopSimulation as exc:
            event = exc.args[0]
            if event is stop and not isinstance(until, Event):
                return None
            if event._ok:
                return event._value
            raise event._value from None
        finally:
            self._processing = False
            stats.events_processed += events
            if peak > stats.heap_peak:
                stats.heap_peak = peak
            self._flush_stats()

    def _flush_stats(self) -> None:
        """Fold counter growth since the last flush into the global aggregate."""
        after = self.stats.snapshot()
        _AGGREGATE.accumulate(self._flushed, after)
        self._flushed = after

    @staticmethod
    def _stop_simulation(event: Event) -> None:
        if not event._ok:
            event.defuse()
        raise StopSimulation(event)

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` from the run loop ``delay`` from now.

        A timer without an event: nothing can wait on it, cancel it or read
        its value, so it skips the :class:`Timeout` and its callbacks list.
        It is queued exactly where
        ``env.timeout(delay).callbacks.append(lambda _e: fn(*args))`` would
        queue its timeout: it draws its event id from the same counter at
        the same point, and a zero delay joins the same-timestamp lane.  So
        swapping one for the other keeps every ordering.  The call counts
        in ``stats.events_processed``, runs with the loop's processing flag
        set (device mutations it makes are epoch-batched), and an exception
        it raises propagates out of :meth:`run` or :meth:`step`.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay} while scheduling {fn!r}")
        if not delay:
            self._fifo.append((fn, args))
            return
        self._eid += 1
        heappush(self._queue, (self.now + delay, _NORMAL, self._eid, (fn, args)))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Spawn a process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pending = len(self._queue) + len(self._fifo)
        return f"<Environment now={self.now} pending={pending}>"
