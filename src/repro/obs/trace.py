"""Structured tracing: the process-wide trace-event sink.

Event model
-----------
A :class:`TraceEvent` is one timestamped observation on a *track*.  Tracks
are addressed by ``(pid, tid)`` pairs — ``pid`` names a track *group*
(``"scheduler"``, ``"device"``, ``"tenants"``, ``"daemon"``) and ``tid`` a
row within it (a tenant name, ``"decisions"``, an SM index).  Phases follow
the Chrome trace-event vocabulary: ``X`` is a complete span (``ts`` +
``dur``) and ``i`` an instant marker.

Timestamps are **simulated seconds** (the :class:`~repro.sim.Environment`
clock); exporters convert to trace-format units.

Enable/disable contract
-----------------------
The module-level :data:`ENABLED` flag mirrors whether a sink is
installed.  Instrumented code guards every emit with it::

    from repro.obs import trace as obs_trace
    ...
    if obs_trace.ENABLED:
        obs_trace.instant("decision", env.now, "scheduler", "decisions",
                          kind=kind, kernel=name)

so the disabled path is one module-attribute load and a branch — no kwargs
dict, no event tuple, no call into a sink.  Golden results are unaffected
when tracing is off (the default).

A second flag, :data:`DETAILED`, gates the *high-frequency micro-events*
(per-epoch device instants, per-decision SM-allocation snapshots) that
fire several times per launch.  A full ``--trace`` capture wants them; the
daemon's always-on flight ring does not — its job is the decision-level
tail, and paying dict-building cost on every engine epoch would blow the
≤5% overhead budget.  A sink declares its appetite with ``detail``
(``"full"`` or ``"light"``); :func:`set_sink` derives ``DETAILED`` from
it.  Guard hot micro-events with ``if obs_trace.DETAILED:`` and
decision-level events with ``if obs_trace.ENABLED:``.

One sink, two shapes
--------------------
:class:`TraceSink` appends every event to a :class:`collections.deque` as
a plain tuple in :class:`TraceEvent` field order — one tuple and one
append per event:

* ``TraceSink()`` keeps everything at full detail (:func:`capture`,
  ``--trace``);
* ``TraceSink(capacity=N, detail="light")`` is the serving daemon's
  flight ring: the ``maxlen`` deque evicts the oldest event itself and
  :attr:`TraceSink.evicted` counts the evictions.

Use :func:`capture` to install a sink for a ``with`` block, or
:func:`set_sink` to manage it manually.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterator, NamedTuple, Optional

from repro.obs.registry import registry as obs_registry

__all__ = [
    "DETAILED",
    "ENABLED",
    "TraceEvent",
    "TraceSink",
    "allocation",
    "capture",
    "complete",
    "get_sink",
    "instant",
    "set_sink",
]

#: Event name carrying an SM-allocation snapshot (``args["allocation"]``
#: maps kernel name -> inclusive ``(sm_low, sm_high)``).  The Perfetto
#: exporter turns the stream of these into per-SM tracks.
ALLOCATION_EVENT = "sm.allocation"


class TraceEvent(NamedTuple):
    """One trace event (see module docstring); sinks store these fields
    as a plain tuple and build a :class:`TraceEvent` only when read."""

    name: str
    ph: str
    ts: float
    pid: str
    tid: Any
    dur: float = 0.0
    args: Optional[dict] = None


class TraceSink:
    """A recording sink: trace events as plain tuples in a deque.

    Parameters
    ----------
    capacity:
        ``None`` keeps every event; ``N`` keeps the newest ``N``, and the
        deque's own ``maxlen`` eviction drops the rest (counted in
        :attr:`evicted`).
    detail:
        ``"full"`` records the :data:`DETAILED` micro-events as well;
        ``"light"`` only the decision-level events.
    metadata:
        Run metadata carried into every exporter output (config
        fingerprint, seed, git revision — see
        :func:`repro.obs.export.run_metadata`).
    """

    __slots__ = (
        "capacity", "detail", "metadata", "ring", "pushed",
        "_evicted_counter", "_evicted_synced",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        detail: str = "full",
        metadata: Optional[dict] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("trace sink capacity must be >= 1 (or None)")
        self.capacity = capacity
        self.detail = detail
        self.metadata = dict(metadata or {})
        self.ring: deque = deque(maxlen=capacity)
        #: Events ever appended; ``pushed - len(self)`` were evicted.
        self.pushed = 0
        self._evicted_counter = obs_registry().counter("obs.recorder.evicted")
        self._evicted_synced = 0

    # -- emit API (hot path: one tuple, one append) -------------------------

    def instant(self, name: str, ts: float, pid: str, tid, **args) -> None:
        """An instant marker (``ph="i"``)."""
        self.pushed += 1
        self.ring.append((name, "i", ts, pid, tid, 0.0, args or None))

    def complete(self, name: str, ts: float, dur: float, pid: str, tid, **args) -> None:
        """A complete span (``ph="X"``): start ``ts``, duration ``dur``."""
        self.pushed += 1
        self.ring.append((name, "X", ts, pid, tid, dur, args or None))

    def allocation(self, ts: float, snapshot: dict) -> None:
        """An SM-allocation snapshot (kernel -> inclusive SM range)."""
        self.pushed += 1
        self.ring.append(
            (ALLOCATION_EVENT, "i", ts, "scheduler", "allocation", 0.0,
             {"allocation": dict(snapshot)})
        )

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ring)

    @property
    def evicted(self) -> int:
        """Events the bounded ring discarded.  Reading it brings the
        registry's ``obs.recorder.evicted`` counter up to date, so the
        per-event append never touches the registry."""
        n = self.pushed - len(self.ring)
        behind = n - self._evicted_synced
        if behind > 0:
            self._evicted_counter.inc(behind)
            self._evicted_synced = n
        return n

    def events(self, newest: Optional[int] = None) -> list[TraceEvent]:
        """The ``newest`` N kept events (all when ``None``), oldest first."""
        ring = self.ring
        skip = 0 if newest is None else max(0, len(ring) - newest)
        return [TraceEvent._make(rec) for rec in islice(ring, skip, None)]


# -- process-wide sink management -----------------------------------------

_sink: Optional[TraceSink] = None

#: Fast-path flag: a sink is installed.  Instrumentation guards on this so
#: the disabled path never builds kwargs or calls out.
ENABLED = False

#: High-frequency micro-events (see the module docstring's contract) emit
#: only when the installed sink declares ``detail == "full"``.
DETAILED = False


def _discard(*_args, **_kwargs) -> None:
    """The emit helpers while no sink is installed."""


def set_sink(sink: Optional[TraceSink]) -> None:
    """Install ``sink`` process-wide (``None`` turns tracing off)."""
    global _sink, ENABLED, DETAILED, instant, complete, allocation
    _sink = sink
    ENABLED = sink is not None
    DETAILED = ENABLED and sink.detail == "full"
    instant = sink.instant if ENABLED else _discard
    complete = sink.complete if ENABLED else _discard
    allocation = sink.allocation if ENABLED else _discard


# ``instant``/``complete``/``allocation`` are rebound by :func:`set_sink`
# to the installed sink's *bound methods*, so a guarded emit is one
# module-attribute load plus a direct method call — no wrapper frame and no
# second ``**kwargs`` repack.  At several events per launch that
# indirection is what keeps the always-on flight ring inside the ≤5%
# overhead budget.  Always call these as ``obs_trace.instant``; a
# ``from ... import instant`` would freeze the binding to whichever sink
# was installed at import time.
set_sink(None)


def get_sink() -> Optional[TraceSink]:
    """The installed sink (``None`` while tracing is off)."""
    return _sink


@contextmanager
def capture(metadata: Optional[dict] = None) -> Iterator[TraceSink]:
    """Install a fresh unbounded, full-detail sink for a ``with`` block.

    The previous sink is restored on exit, so captures nest safely and a
    failing block never leaves tracing globally enabled.
    """
    sink = TraceSink(metadata=metadata)
    previous = _sink
    set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)
