"""Structured tracing: the process-wide span/instant/counter event sink.

Event model
-----------
A :class:`TraceEvent` is one timestamped observation on a *track*.  Tracks
are addressed by ``(pid, tid)`` pairs — ``pid`` names a track *group*
(``"scheduler"``, ``"device"``, ``"tenants"``, ``"daemon"``) and ``tid`` a
row within it (a tenant name, ``"decisions"``, an SM index).  Phases follow
the Chrome trace-event vocabulary:

========  =====================================================
``ph``    meaning
========  =====================================================
``X``     complete span (``ts`` + ``dur``)
``B``     span begin (paired with a later ``E`` on the track)
``E``     span end
``i``     instant marker
``C``     counter sample (``args`` holds the series values)
========  =====================================================

Timestamps are **simulated seconds** (the :class:`~repro.sim.Environment`
clock); exporters convert to trace-format units.

Enable/disable contract
-----------------------
The module-level :data:`ENABLED` flag mirrors whether the installed sink
records anything.  Instrumented code guards every emit with it::

    from repro.obs import trace as obs_trace
    ...
    if obs_trace.ENABLED:
        obs_trace.instant("decision", env.now, "scheduler", "decisions",
                          kind=kind, kernel=name)

so the disabled path is one module-attribute load and a branch — no kwargs
dict, no event object, no call into the sink.  Golden results and the
committed BENCH numbers are unaffected when tracing is off (the default).

A second flag, :data:`DETAILED`, gates the *high-frequency micro-events*
(per-epoch device instants, per-decision SM-allocation snapshots) that
fire several times per launch.  A full ``--trace`` capture wants them; the
always-on flight recorder does not — its job is the decision-level tail,
and paying dict-building cost on every engine epoch would blow the ≤5%
overhead budget.  Sinks declare their appetite via a ``detail`` attribute
(``"full"`` or ``"light"``); :func:`set_sink` derives ``DETAILED`` from
it.  Guard hot micro-events with ``if obs_trace.DETAILED:`` and
decision-level events with ``if obs_trace.ENABLED:``.

Use :func:`capture` to install a recording sink for a ``with`` block, or
:func:`set_sink` to manage it manually.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = [
    "DETAILED",
    "ENABLED",
    "NULL_SINK",
    "NullSink",
    "TraceEvent",
    "TraceSink",
    "allocation",
    "begin",
    "capture",
    "complete",
    "counter",
    "end",
    "get_sink",
    "instant",
    "set_sink",
    "span",
]

#: Event name carrying an SM-allocation snapshot (``args["allocation"]``
#: maps kernel name -> inclusive ``(sm_low, sm_high)``).  The Perfetto
#: exporter turns the stream of these into per-SM tracks.
ALLOCATION_EVENT = "sm.allocation"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record (see module docstring for the schema)."""

    name: str
    ph: str
    ts: float
    pid: str
    tid: Any
    dur: float = 0.0
    args: Optional[dict] = None


class NullSink:
    """The disabled sink: records nothing, allocates nothing."""

    enabled = False
    detail = "off"
    __slots__ = ()

    def instant(self, name, ts, pid, tid, **args) -> None:
        pass

    def begin(self, name, ts, pid, tid, **args) -> None:
        pass

    def end(self, name, ts, pid, tid) -> None:
        pass

    def complete(self, name, ts, dur, pid, tid, **args) -> None:
        pass

    def counter(self, name, ts, pid, tid, **values) -> None:
        pass

    def allocation(self, ts, snapshot) -> None:
        pass


#: The shared disabled sink (installed by default).
NULL_SINK = NullSink()


@dataclass
class TraceSink:
    """A recording sink: an in-memory, optionally bounded event list.

    Parameters
    ----------
    limit:
        Maximum number of events retained; ``None`` keeps everything.
        When the bound is hit the oldest half is discarded and
        :attr:`dropped` counts every discarded event — truncation is never
        silent.
    metadata:
        Run metadata carried into every exporter output (config
        fingerprint, seed, git revision — see
        :func:`repro.obs.export.run_metadata`).
    """

    enabled = True
    #: A recording sink wants everything, micro-events included.
    detail = "full"

    limit: Optional[int] = None
    metadata: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    #: Events discarded at the ``limit`` bound (see class docstring).
    dropped: int = 0

    # -- emit API ---------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        events = self.events
        if self.limit is not None and len(events) >= self.limit:
            cut = max(1, len(events) // 2)
            del events[0:cut]
            self.dropped += cut
            # Mirror into the registry so a fleet scrape sees trace-loss
            # without reading the sink (rare branch; cost is off hot path).
            from repro.obs.registry import registry as _registry

            _registry().counter("obs.trace.dropped").inc(cut)
        events.append(event)

    def instant(self, name: str, ts: float, pid: str, tid, **args) -> None:
        """An instant marker (``ph="i"``)."""
        self._append(TraceEvent(name, "i", ts, pid, tid, 0.0, args or None))

    def begin(self, name: str, ts: float, pid: str, tid, **args) -> None:
        """Open a span on ``(pid, tid)``; pair with :meth:`end`."""
        self._append(TraceEvent(name, "B", ts, pid, tid, 0.0, args or None))

    def end(self, name: str, ts: float, pid: str, tid) -> None:
        """Close the innermost open span on ``(pid, tid)``."""
        self._append(TraceEvent(name, "E", ts, pid, tid, 0.0, None))

    def complete(self, name: str, ts: float, dur: float, pid: str, tid, **args) -> None:
        """A complete span (``ph="X"``): start ``ts``, duration ``dur``."""
        self._append(TraceEvent(name, "X", ts, pid, tid, dur, args or None))

    def counter(self, name: str, ts: float, pid: str, tid, **values) -> None:
        """A counter sample; ``values`` are the series at time ``ts``."""
        self._append(TraceEvent(name, "C", ts, pid, tid, 0.0, values))

    def allocation(self, ts: float, snapshot: dict) -> None:
        """An SM-allocation snapshot (kernel -> inclusive SM range)."""
        self._append(
            TraceEvent(
                ALLOCATION_EVENT, "i", ts, "scheduler", "allocation",
                0.0, {"allocation": dict(snapshot)},
            )
        )

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_name(self, name: str) -> list[TraceEvent]:
        """All events with the given name."""
        return [e for e in self.events if e.name == name]

    def of_track(self, pid: str, tid=None) -> list[TraceEvent]:
        """All events on a track group (and optionally one row of it)."""
        return [
            e for e in self.events
            if e.pid == pid and (tid is None or e.tid == tid)
        ]

    def end_time(self) -> float:
        """Latest timestamp covered by any event (0.0 when empty)."""
        return max((e.ts + e.dur for e in self.events), default=0.0)


# -- process-wide sink management -----------------------------------------

_sink: "TraceSink | NullSink" = NULL_SINK

#: Fast-path flag mirroring ``get_sink().enabled`` — instrumentation
#: guards on this so the disabled path never builds kwargs or calls out.
ENABLED = False

#: High-frequency micro-events (see the module docstring's contract) emit
#: only when the installed sink declares ``detail == "full"``.
DETAILED = False


def set_sink(sink: "TraceSink | NullSink | None") -> None:
    """Install ``sink`` process-wide (``None`` restores the null sink)."""
    global _sink, ENABLED, DETAILED
    global instant, begin, end, complete, counter, allocation
    _sink = sink if sink is not None else NULL_SINK
    ENABLED = bool(getattr(_sink, "enabled", False))
    DETAILED = ENABLED and getattr(_sink, "detail", "full") == "full"
    instant = _sink.instant
    begin = _sink.begin
    end = _sink.end
    complete = _sink.complete
    counter = _sink.counter
    allocation = _sink.allocation


set_sink(None)  # bind the emit helpers to the null sink at import


def get_sink() -> "TraceSink | NullSink":
    """The currently installed sink."""
    return _sink


@contextmanager
def capture(
    limit: Optional[int] = None, metadata: Optional[dict] = None
) -> Iterator[TraceSink]:
    """Install a fresh recording sink for the duration of a ``with`` block.

    The previous sink is restored on exit, so captures nest safely and a
    failing block never leaves tracing globally enabled.
    """
    sink = TraceSink(limit=limit, metadata=dict(metadata or {}))
    previous = _sink
    set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)


# -- module-level emit helpers ----------------------------------------------
#
# ``instant``/``begin``/``end``/``complete``/``counter``/``allocation`` are
# rebound by :func:`set_sink` to the installed sink's *bound methods*, so a
# guarded emit is one module-attribute load plus a direct method call — no
# wrapper frame and no second ``**kwargs`` repack.  At several events per
# launch that indirection is what separates the always-on flight recorder
# from the ≤5% overhead budget.  Always call these as ``obs_trace.instant``
# (module attribute); a ``from ... import instant`` would freeze the
# binding to whichever sink was installed at import time.


@contextmanager
def span(name: str, env, pid: str, tid, **args) -> Iterator[None]:
    """Lexical span: emits one complete event covering the ``with`` body.

    ``env`` is the :class:`~repro.sim.Environment` whose clock stamps the
    span.  A no-op (beyond two clock reads) when tracing is disabled.
    """
    start = env.now
    try:
        yield
    finally:
        if ENABLED:
            _sink.complete(name, start, env.now - start, pid, tid, **args)
