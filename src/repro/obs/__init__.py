"""Unified observability: structured tracing + the process-wide metrics registry.

The reproduction used to have disconnected observability surfaces
(``Environment.stats``, ``sim.tracing.Tracer``, the scheduler's
decision/allocation logs, the rate-memo counters).  This package gives
them one home:

* :mod:`repro.obs.trace` — a process-wide :class:`~repro.obs.trace.TraceSink`
  with a span/instant/counter event API.  Instrumentation sits at every
  interesting boundary (engine dispatch, scheduler decisions, resizes,
  epochs, task-queue pulls) behind a module-level
  ``ENABLED`` flag, so the disabled path is a single attribute check —
  no allocation, no behavioural change, golden results untouched.
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (loads in
  Perfetto / ``chrome://tracing``, one track per SM plus one per tenant)
  and a JSONL stream with run metadata.
* :mod:`repro.obs.registry` — a single named counter/gauge/histogram
  registry that absorbs the engine aggregate, rate-memo and occupancy
  cache counters (as pull *sources*) and the scheduler/daemon counters
  (as push counters).  ``runner --profile`` and the
  ``repro obs dump`` CLI read from it.
* :mod:`repro.obs.validate` — trace-event schema and Prometheus
  exposition validation used by tests and the CI smoke job.
* :mod:`repro.obs.aggregate` — the Prometheus text exposition behind
  ``repro obs export --prom``.
* :mod:`repro.obs.slo` — declarative SLO targets with sliding-window,
  multi-window burn-rate alerting surfaced as ``slo.*`` gauges.
* :mod:`repro.obs.recorder` — the always-on flight recorder: a bounded
  ring of recent trace events dumped to Perfetto on crash, ``SIGUSR1``,
  or ``repro obs dump --recent``.

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
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOTarget, SLOTracker, load_slo_config
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    NULL_SINK,
    EnvTracerAdapter,
    NullSink,
    TraceEvent,
    TraceSink,
    capture,
    get_sink,
    set_sink,
)
from repro.obs.validate import validate_chrome_trace, validate_prometheus

__all__ = [
    "Counter",
    "EnvTracerAdapter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
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
