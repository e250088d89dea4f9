"""Telemetry-plane overhead benchmarks.

Not a paper experiment — the engineering guardrail for PR 9's fleet
telemetry: the always-on flight recorder and the metric gauges ride the
scheduler's hot path, so their cost is measured against the exact same
100k-launch churn that ``test_scheduler_perf.py`` gates.  Two configs run
interleaved (recorder uninstalled vs installed) and the min-of-reps
per-launch cost must stay within 5% — the acceptance bound for "obs
enabled" — while the disabled path simply *is* the scheduler baseline.

Emits ``benchmarks/BENCH_obs.json`` (same row shape as the other BENCH
files) so CI can diff it against the committed baseline with
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.test_scheduler_perf import _scheduler_churn
from repro.gpu.occupancy import reset_occupancy_cache
from repro.gpu.rates import reset_rates_cache
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.obs.registry import Histogram

BENCH_JSON = Path(__file__).parent / "BENCH_obs.json"

#: Churn size for the overhead gate; matches a BENCH_scheduler point.
CHURN_N = 100_000

#: Interleaved repetitions; the gate takes the best *paired* ratio so
#: machine-wide drift between reps cancels instead of masquerading as
#: overhead (or hiding it).
REPS = 3

#: Acceptance bound: obs-enabled per-launch cost within 5% of disabled.
OVERHEAD_GATE = 1.05


@pytest.fixture(scope="session")
def obs_bench_json():
    records: dict[str, dict] = {}
    yield records
    if records:
        BENCH_JSON.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"\nobs overhead written to {BENCH_JSON}")


def _churn_once(n: int) -> float:
    reset_rates_cache()
    reset_occupancy_cache()
    _, sched, elapsed = _scheduler_churn(n)
    assert sched.solo_launches + sched.corun_launches == n
    return elapsed


def test_flight_recorder_overhead_under_gate(obs_bench_json):
    """Interleaved disabled/enabled churn; gate the min-of-reps ratio."""
    obs_recorder.uninstall()
    obs_trace.set_sink(None)
    disabled, enabled, events = [], [], 0
    for _ in range(REPS):
        assert not obs_trace.ENABLED
        disabled.append(_churn_once(CHURN_N))
        rec = obs_recorder.install(capacity=4096)
        try:
            assert obs_trace.ENABLED
            enabled.append(_churn_once(CHURN_N))
            events = len(rec) + rec.evicted
        finally:
            obs_recorder.uninstall()
            obs_trace.set_sink(None)
    d, e = min(disabled), min(enabled)
    # Each rep runs disabled-then-enabled back to back, so the per-pair
    # ratio sees the same machine conditions; the best pair is the
    # cleanest estimate of true recorder overhead.
    overhead = min(en / di for di, en in zip(disabled, enabled))
    obs_bench_json[f"obs_disabled_churn_{CHURN_N}"] = {
        "launches": CHURN_N,
        "seconds": round(d, 4),
        "launches_per_sec": round(CHURN_N / d),
        "us_per_launch": round(d / CHURN_N * 1e6, 2),
    }
    obs_bench_json[f"obs_enabled_churn_{CHURN_N}"] = {
        "launches": CHURN_N,
        "seconds": round(e, 4),
        "launches_per_sec": round(CHURN_N / e),
        "us_per_launch": round(e / CHURN_N * 1e6, 2),
        "ring_events": events,
        "overhead_vs_disabled": round(overhead, 4),
    }
    # The recorder actually saw the churn (ring filled + evictions).
    assert events > CHURN_N
    assert overhead <= OVERHEAD_GATE, (
        f"flight-recorder overhead {overhead:.3f}x exceeds {OVERHEAD_GATE}x "
        f"(disabled {d:.3f}s vs enabled {e:.3f}s at {CHURN_N} launches)"
    )


def test_histogram_observe_throughput(obs_bench_json):
    """Raw Histogram.observe cost — the per-request serving-path add-on."""
    n = 1_000_000
    h = Histogram("bench")
    values = [0.0001 * (1 + (i % 997)) for i in range(n)]
    best = float("inf")
    for _ in range(3):
        h.reset()
        start = time.perf_counter()
        observe = h.observe
        for v in values:
            observe(v)
        best = min(best, time.perf_counter() - start)
    assert h.count == n
    obs_bench_json[f"histogram_observe_{n}"] = {
        "observes": n,
        "seconds": round(best, 4),
        "observes_per_sec": round(n / best),
        "ns_per_observe": round(best / n * 1e9, 1),
    }
    # An observe is a log + dict bump; keep it well under a microsecond.
    assert best / n < 1e-6
