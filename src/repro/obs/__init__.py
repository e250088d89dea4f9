"""Unified observability: structured tracing + the process-wide metrics registry.

The reproduction used to have disconnected observability surfaces
(``Environment.stats``, the scheduler's decision/allocation logs, the
rate-memo counters).  This package gives them one home:

* :mod:`repro.obs.trace` — the process-wide :class:`~repro.obs.trace.TraceSink`
  with an instant/span event API.  Instrumentation sits at every
  interesting boundary (scheduler decisions, resizes, epochs, task-queue
  pulls) behind a module-level ``ENABLED`` flag, so the disabled path is a
  single attribute check — no allocation, no behavioural change, golden
  results untouched.  The same sink, bounded, is the serving daemon's
  always-on flight ring, dumped to Perfetto on crash, ``SIGUSR1`` or
  ``repro obs dump --socket S --recent N``.
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (loads in
  Perfetto / ``chrome://tracing``, one track per SM plus one per tenant)
  and a JSONL stream with run metadata.
* :mod:`repro.obs.registry` — a single named counter/gauge/histogram
  registry that absorbs the engine aggregate, rate-memo and occupancy
  cache counters (as pull *sources*) and the scheduler/daemon counters
  (as push counters).  ``repro experiments --profile`` and the
  ``repro obs dump`` CLI read from it.
* :mod:`repro.obs.validate` — trace-event schema and Prometheus
  exposition validation used by tests and the CI smoke job.
* :mod:`repro.obs.aggregate` — the Prometheus text exposition behind
  ``repro obs export --prom``.
* :mod:`repro.obs.slo` — declarative SLO targets with sliding-window,
  multi-window burn-rate alerting surfaced as ``slo.*`` gauges.

Quick start::

    from repro import obs

    with obs.capture(metadata=obs.run_metadata(seed=0)) as sink:
        ...  # run any simulation / replay
    obs.write_chrome_trace("out.json", sink)

    print(obs.registry().to_json())
"""

from repro.obs.aggregate import to_prometheus
from repro.obs.export import (
    run_metadata,
    to_chrome_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.slo import SLOTarget, SLOTracker, load_slo_config
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    TraceEvent,
    TraceSink,
    capture,
    get_sink,
    set_sink,
)
from repro.obs.validate import validate_chrome_trace, validate_prometheus

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOTarget",
    "SLOTracker",
    "TraceEvent",
    "TraceSink",
    "capture",
    "get_sink",
    "load_slo_config",
    "registry",
    "run_metadata",
    "set_sink",
    "to_prometheus",
    "to_chrome_events",
    "validate_chrome_trace",
    "validate_prometheus",
    "write_chrome_trace",
    "write_jsonl",
]
