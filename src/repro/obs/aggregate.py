"""Prometheus text exposition of a metrics-registry state.

:func:`to_prometheus` renders a ``MetricsRegistry.export_state()`` dict
(or a ``snapshot()``) in the Prometheus text exposition format
(``# TYPE`` comments, cumulative ``_bucket{le=...}`` series,
``_sum``/``_count``); :func:`repro.obs.validate.validate_prometheus`
checks it.

The sharded daemon runs every shard inside its one event loop, so all
shards share one :class:`~repro.obs.registry.MetricsRegistry`: the
session-less ``metrics`` op answers with that registry's export plus
``fleet.shard.<i>.*`` clock gauges, and
``repro obs export --prom --socket <path>`` renders it with this module.
"""

from __future__ import annotations

import re

from repro.obs.registry import Histogram

__all__ = ["histogram_prom_lines", "prom_name", "to_prometheus"]


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
    """Render a registry state dict as Prometheus text.

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
