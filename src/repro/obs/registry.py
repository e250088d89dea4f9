"""The single metrics registry: named counters, gauges, histograms, sources.

One process-wide :class:`MetricsRegistry` absorbs the previously-scattered
stats surfaces:

* **push metrics** — instruments created by name via :meth:`counter` /
  :meth:`gauge` / :meth:`histogram` and updated by the code that owns them
  (scheduler decisions, daemon compiles, monitor samples, task-queue
  pulls).  Creation is get-or-create, so every layer referring to
  ``"scheduler.decisions"`` shares one counter.
* **pull sources** — existing counter surfaces registered as callables
  polled at :meth:`snapshot` time: the engine aggregate
  (:func:`repro.sim.aggregate_stats`), the rate-derivation memo
  (:func:`repro.gpu.rates.rates_cache_info`) and the occupancy cache
  (:func:`repro.gpu.occupancy.occupancy_cache_info`).

``runner --profile`` and ``python -m repro obs dump`` read through this
registry; the old accessors (``Environment.stats``, ``aggregate_stats``,
``SlateCluster.scheduler_stats``, ``rates_cache_info``,
``occupancy_cache_info``) keep working as compatibility shims — see
``docs/observability.md`` for the deprecation notes.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A named value that can go up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Log-bucketed distribution of observed values.

    Buckets grow geometrically by :data:`GROWTH` (2**1/4, four buckets per
    octave), so any quantile estimate is within one bucket — a relative
    error of at most ~19% — of the true streamed value.  The bucket table
    is a sparse ``{index: count}`` dict: bucket ``i`` covers
    ``(GROWTH**i, GROWTH**(i+1)]``; values ``<= 0`` land in a dedicated
    zero bucket and indices are clamped to ``[MIN_INDEX, MAX_INDEX]`` (the
    clamped-high observations are also tallied in ``overflow``).

    Two histograms merge losslessly at bucket granularity: ``h1 + h2`` (or
    the in-place :meth:`merge`) has *exactly* the buckets of a histogram
    fed the concatenated stream, which is what lets
    :mod:`repro.obs.aggregate` sum distributions exported by separate
    processes into one fleet view.  :meth:`state` /
    :meth:`from_state` round-trip the full representation as JSON-safe
    plain data for the wire.

    ``summary()`` keeps the original ``count/sum/min/max/mean`` keys and
    adds ``p50/p90/p99/p999``.
    """

    __slots__ = ("name", "count", "total", "min", "max", "zero_count", "overflow", "buckets")

    #: Geometric growth factor between bucket bounds (4 buckets per octave).
    GROWTH = 2.0 ** 0.25
    #: 1 / ln(GROWTH): multiplying ln(value) by this yields the bucket index.
    _INV_LOG_GROWTH = 4.0 / math.log(2.0)
    #: Index clamp range: covers roughly [5e-10, 4.3e9] before clamping.
    MIN_INDEX = -124
    MAX_INDEX = 128

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count = 0
        self.overflow = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        idx = math.floor(math.log(value) * self._INV_LOG_GROWTH)
        if idx < self.MIN_INDEX:
            idx = self.MIN_INDEX
        elif idx > self.MAX_INDEX:
            idx = self.MAX_INDEX
            self.overflow += 1
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @classmethod
    def bucket_upper(cls, index: int) -> float:
        """Exclusive-inclusive upper bound of bucket ``index``."""
        return cls.GROWTH ** (index + 1)

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (``0 <= q <= 1``) from the buckets.

        Log-linear interpolation inside the covering bucket, clamped to the
        exact observed ``[min, max]`` so single-value and tail estimates
        never stray outside the real data range.
        """
        if not self.count:
            return 0.0
        lo_clamp = self.min if self.min is not None else 0.0
        hi_clamp = self.max if self.max is not None else 0.0
        if q <= 0.0:
            return lo_clamp
        if q >= 1.0:
            return hi_clamp
        target = q * self.count
        cum = self.zero_count
        if cum >= target:
            return min(0.0, hi_clamp) if lo_clamp >= 0.0 else lo_clamp
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            cum += n
            if cum >= target:
                frac = 1.0 - (cum - target) / n
                est = (self.GROWTH ** idx) * (self.GROWTH ** frac)
                return max(lo_clamp, min(hi_clamp, est))
        return hi_clamp

    def percentiles(self) -> dict:
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (in place)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.zero_count += other.zero_count
        self.overflow += other.overflow
        buckets = self.buckets
        for idx, n in other.buckets.items():
            buckets[idx] = buckets.get(idx, 0) + n
        return self

    def __add__(self, other: "Histogram") -> "Histogram":
        merged = Histogram(self.name)
        merged.merge(self)
        merged.merge(other)
        return merged

    def summary(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        out.update(self.percentiles())
        return out

    def state(self) -> dict:
        """Full JSON-safe representation (bucket keys become strings)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zero": self.zero_count,
            "overflow": self.overflow,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_state(cls, name: str, state: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`state` output (wire decode)."""
        h = cls(name)
        h.count = int(state.get("count", 0))
        h.total = float(state.get("sum", 0.0))
        h.min = state.get("min")
        h.max = state.get("max")
        h.zero_count = int(state.get("zero", 0))
        h.overflow = int(state.get("overflow", 0))
        h.buckets = {int(idx): int(n) for idx, n in state.get("buckets", {}).items()}
        return h

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.zero_count = 0
        self.overflow = 0
        self.buckets.clear()


class MetricsRegistry:
    """Named metric instruments plus pollable sources (see module docstring)."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._sources: dict[str, Callable[[], dict]] = {}

    # -- instruments -------------------------------------------------------

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metric_names(self) -> list[str]:
        return sorted(self._metrics)

    # -- sources -----------------------------------------------------------

    def register_source(self, name: str, fn: Callable[[], dict]) -> None:
        """Register (or replace) a pollable source of ``{name: value}``."""
        self._sources[name] = fn

    def source_names(self) -> list[str]:
        return sorted(self._sources)

    def source_snapshot(self, name: str) -> dict:
        """Poll one source now."""
        return dict(self._sources[name]())

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the registry knows, as plain data.

        Shape::

            {"counters": {name: int},
             "gauges": {name: float},
             "histograms": {name: {count, sum, min, max, mean,
                                   p50, p90, p99, p999}},
             "sources": {source: {field: value}}}
        """
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.summary()
        sources = {}
        for name in sorted(self._sources):
            try:
                sources[name] = dict(self._sources[name]())
            except Exception as exc:  # a broken source must not kill a dump
                sources[name] = {"error": repr(exc)}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "sources": sources,
        }

    def export_state(self) -> dict:
        """Snapshot with *full* histogram bucket state, for wire transfer.

        Same shape as :meth:`snapshot` except ``histograms`` maps to
        :meth:`Histogram.state` dicts (mergeable via
        :func:`repro.obs.aggregate.merge_registry_states`) instead of the
        human-oriented summaries.
        """
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.state()
        sources = {}
        for name in sorted(self._sources):
            try:
                sources[name] = dict(self._sources[name]())
            except Exception as exc:  # a broken source must not kill a scrape
                sources[name] = {"error": repr(exc)}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "sources": sources,
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON rendering of :meth:`snapshot` (the ``repro obs dump`` body)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset_metrics(self) -> None:
        """Zero every push metric (sources are owned elsewhere)."""
        for metric in self._metrics.values():
            metric.reset()


# -- the process-wide registry ----------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry instance."""
    return _REGISTRY


def _engine_source() -> dict:
    from repro.sim import aggregate_stats

    return aggregate_stats().snapshot()


def _rates_memo_source() -> dict:
    from repro.gpu.rates import rates_cache_info

    return rates_cache_info()


def _occupancy_source() -> dict:
    from repro.gpu.occupancy import occupancy_cache_info

    return occupancy_cache_info()


_REGISTRY.register_source("engine", _engine_source)
_REGISTRY.register_source("rates_memo", _rates_memo_source)
_REGISTRY.register_source("occupancy_cache", _occupancy_source)
