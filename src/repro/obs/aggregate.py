"""Cross-shard metric aggregation: shard scrapes → fleet view → exposition.

The sharded daemon runs every shard inside its one event loop, so all
shards share one :class:`~repro.obs.registry.MetricsRegistry`.  This
module turns registry exports and per-shard clocks into one fleet-wide
answer, and merges exports taken from separate processes exactly:

* :func:`merge_registry_states` folds N ``MetricsRegistry.export_state()``
  dicts into one — counters sum, histograms merge at bucket granularity
  (lossless, see :class:`~repro.obs.registry.Histogram`), gauges sum
  except ``slo.*`` burn gauges which take the worst (max) shard.
* :func:`aggregate_fleet` wraps that merge with per-shard bookkeeping:
  wall-vs-sim clock skew (how far each shard's simulation clock trails the
  fleet max) and scrape staleness, injected back into the merged state as
  ``fleet.shard.<i>.*`` gauges so every exposition format carries them.
* :func:`to_prometheus` renders a state dict in the Prometheus text
  exposition format (``# TYPE`` comments, cumulative ``_bucket{le=...}``
  series, ``_sum``/``_count``); checked by
  :func:`repro.obs.validate.validate_prometheus`.

The wire side lives in ``repro.serve``: the daemon answers the
session-less v2 ``metrics`` op with :func:`aggregate_fleet` over one
:class:`ShardScrape` row per shard and its own registry export;
``repro obs export --prom --socket <path>`` asks it for that view.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.registry import Histogram

__all__ = [
    "ShardScrape",
    "aggregate_fleet",
    "merge_histogram_states",
    "merge_registry_states",
    "to_prometheus",
]

#: Gauge-name prefixes merged by max (worst shard) instead of summed:
#: summing burn rates or clock readings across shards is meaningless.
_MAX_MERGED_GAUGE_PREFIXES = ("slo.",)


@dataclass
class ShardScrape:
    """One shard's registry scrape plus the clocks needed for skew."""

    shard: int
    state: Optional[dict]  # MetricsRegistry.export_state(), None if scrape failed
    wall: float = 0.0  # shard-reported time.time() at export
    sim_time: float = 0.0  # shard's simulation clock at export
    scraped_at: float = 0.0  # scraper's time.time() when the reply landed
    extra: dict = field(default_factory=dict)  # stats-block fields for dashboards


def merge_histogram_states(states: Iterable[dict], name: str = "merged") -> dict:
    """Merge :meth:`Histogram.state` dicts; exact at bucket granularity."""
    merged = Histogram(name)
    for state in states:
        merged.merge(Histogram.from_state(name, state))
    return merged.state()


def _merge_gauge(name: str, values: list[float]) -> float:
    if name.startswith(_MAX_MERGED_GAUGE_PREFIXES):
        # Worst shard wins: max for burn/burning, min for good ratios.
        return min(values) if name.endswith(".good_ratio") else max(values)
    return sum(values)


def merge_registry_states(states: Iterable[dict]) -> dict:
    """Fold N ``export_state()`` dicts into one fleet-wide state dict.

    Counters and numeric source fields sum; histograms bucket-merge;
    gauges sum except the prefixes in ``_MAX_MERGED_GAUGE_PREFIXES``
    (taken by max — the worst shard is the fleet answer for a burn rate).
    Non-numeric source fields keep the first value seen.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, list[float]] = {}
    histograms: dict[str, Histogram] = {}
    sources: dict[str, dict] = {}
    for state in states:
        if not state:
            continue
        for name, value in state.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in state.get("gauges", {}).items():
            gauges.setdefault(name, []).append(value)
        for name, hstate in state.get("histograms", {}).items():
            h = histograms.get(name)
            if h is None:
                histograms[name] = Histogram.from_state(name, hstate)
            else:
                h.merge(Histogram.from_state(name, hstate))
        for sname, fields in state.get("sources", {}).items():
            out = sources.setdefault(sname, {})
            for fname, value in fields.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    out.setdefault(fname, value)
                else:
                    prev = out.get(fname, 0)
                    out[fname] = (prev if isinstance(prev, (int, float)) else 0) + value
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {name: _merge_gauge(name, vals) for name, vals in sorted(gauges.items())},
        "histograms": {name: h.state() for name, h in sorted(histograms.items())},
        "sources": dict(sorted(sources.items())),
    }


def _strip_fleet_gauges(state: dict) -> dict:
    gauges = state.get("gauges")
    if not gauges or not any(k.startswith("fleet.shard.") for k in gauges):
        return state
    return {
        **state,
        "gauges": {
            k: v for k, v in gauges.items() if not k.startswith("fleet.shard.")
        },
    }


def aggregate_fleet(
    scrapes: Iterable[ShardScrape],
    local_state: Optional[dict] = None,
    now: Optional[float] = None,
) -> dict:
    """Build the fleet view the ``metrics`` op and ``repro top`` serve.

    Returns::

        {"registry": <merged state incl. fleet.shard.* skew gauges>,
         "sim_time": <max shard sim clock>,
         "shards": {"<i>": {"sim_time", "wall", "sim_skew", "scrape_age",
                            "registry": <that shard's state or None>, ...extra}}}

    ``sim_skew`` is how far shard *i*'s simulation clock trails the fleet
    max — in a healthy fleet the shards tick independently, so a shard
    whose skew keeps growing is stalled or overloaded.  ``scrape_age`` is
    wall seconds since the scrape landed (staleness of everything else).
    """
    if now is None:
        now = time.time()
    scrapes = list(scrapes)
    # A scraped state may itself be a fleet view (a single-shard daemon
    # reports fleet.shard.0.* about itself); strip those gauges so this
    # level's per-shard bookkeeping is the only authority.
    states = [_strip_fleet_gauges(s.state) for s in scrapes if s.state]
    if local_state:
        states.append(local_state)
    merged = merge_registry_states(states)
    max_sim = max((s.sim_time for s in scrapes), default=0.0)
    shards: dict[str, dict] = {}
    for s in scrapes:
        block = {
            "sim_time": s.sim_time,
            "wall": s.wall,
            "sim_skew": max_sim - s.sim_time,
            "scrape_age": max(0.0, now - s.scraped_at) if s.scraped_at else 0.0,
            "registry": s.state,
        }
        block.update(s.extra)
        shards[str(s.shard)] = block
        merged["gauges"][f"fleet.shard.{s.shard}.sim_time"] = s.sim_time
        merged["gauges"][f"fleet.shard.{s.shard}.sim_skew"] = block["sim_skew"]
        merged["gauges"][f"fleet.shard.{s.shard}.scrape_age"] = block["scrape_age"]
    return {"registry": merged, "sim_time": max_sim, "shards": shards}


# -- Prometheus text exposition ----------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str, namespace: str = "repro") -> str:
    """Map a dotted metric name onto the Prometheus name grammar."""
    flat = _NAME_SANITIZE.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
    if not re.match(r"[a-zA-Z_:]", flat[:1] or "_"):
        flat = f"_{flat}"
    return flat


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


def histogram_prom_lines(name: str, state: dict) -> list[str]:
    """Cumulative ``_bucket{le=...}``/``_sum``/``_count`` series for one histogram."""
    lines = [f"# TYPE {name} histogram"]
    cum = int(state.get("zero", 0))
    buckets = sorted((int(i), int(n)) for i, n in state.get("buckets", {}).items())
    if cum:
        # Everything in the zero bucket is <= 0; give it an explicit bound.
        lines.append(f'{name}_bucket{{le="0"}} {cum}')
    for idx, n in buckets:
        cum += n
        lines.append(f'{name}_bucket{{le="{Histogram.bucket_upper(idx):.6g}"}} {cum}')
    count = int(state.get("count", 0))
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_fmt(state.get('sum', 0.0))}")
    lines.append(f"{name}_count {count}")
    return lines


def to_prometheus(state: dict, namespace: str = "repro") -> str:
    """Render a registry state dict (or merged fleet state) as Prometheus text.

    Accepts either ``export_state()`` output (full bucket state → real
    histogram series) or ``snapshot()`` output (summaries → quantile
    gauges), so both the local and the scraped paths expose the same way.
    """
    lines: list[str] = []
    seen: set[str] = set()

    def emit(name: str, kind: str, value: float) -> None:
        if name in seen:
            return
        seen.add(name)
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_fmt(value)}")

    for raw, value in sorted(state.get("counters", {}).items()):
        emit(prom_name(raw, namespace), "counter", value)
    for raw, value in sorted(state.get("gauges", {}).items()):
        emit(prom_name(raw, namespace), "gauge", value)
    for raw, hstate in sorted(state.get("histograms", {}).items()):
        name = prom_name(raw, namespace)
        if name in seen:
            continue
        seen.add(name)
        if "buckets" in hstate:
            lines.extend(histogram_prom_lines(name, hstate))
        else:  # summary-only snapshot: expose the quantiles as gauges
            for key in ("p50", "p90", "p99", "p999", "mean"):
                if key in hstate and hstate[key] is not None:
                    emit(f"{name}_{key}", "gauge", hstate[key])
            emit(f"{name}_count", "gauge", hstate.get("count", 0))
    for sname, fields in sorted(state.get("sources", {}).items()):
        for fname, value in sorted(fields.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            emit(prom_name(f"{sname}.{fname}", namespace), "gauge", value)
    return "\n".join(lines) + "\n"
