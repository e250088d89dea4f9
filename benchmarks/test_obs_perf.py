"""Telemetry-plane overhead benchmarks.

Not a paper experiment — the engineering guardrail for the fleet
telemetry: the always-on flight recorder and the metric gauges ride the
scheduler's hot path, so their cost is measured on a 100k-launch
scheduler churn.  Two configs run interleaved (no sink vs the daemon's
bounded, light-detail ring) and the best paired per-launch ratio must
stay within 5% —
the acceptance bound for "obs enabled".  The disabled path is the
scheduler and device path the end-to-end ``trace_pair`` workload gates
(``benchmarks/e2e/``); this bench keeps only the in-bench asserts.

    PYTHONPATH=src python -m pytest benchmarks/test_obs_perf.py -q
"""

from __future__ import annotations

import time

from repro.config import CostModel, TITAN_XP
from repro.gpu.device import SimulatedGPU
from repro.gpu.rates import reset_rates_cache
from repro.kernels.registry import by_name
from repro.obs import trace as obs_trace
from repro.obs.registry import Histogram
from repro.sim import Environment
from repro.slate.profiler import ProfileTable, offline_profile
from repro.slate.scheduler import SlateScheduler, SlateTicket

#: Churn size for the overhead gate.
CHURN_N = 100_000

#: Complementary pair (compute-heavy + light) so corun decisions happen.
CHURN_SPECS = ("BS", "RG")

#: Arrival burst: a standing queue deep enough to stress its ordering.
BURST = 2048

#: Interleaved repetitions; the gate takes the best *paired* ratio so
#: machine-wide drift between reps cancels instead of masquerading as
#: overhead (or hiding it).
REPS = 3

#: Acceptance bound: obs-enabled per-launch cost within 5% of disabled.
OVERHEAD_GATE = 1.05


def _scheduler_churn(n_launches: int, burst: int = BURST):
    """Drive the scheduler with a bursty launch stream until drained.

    Submits ``burst`` tickets at a time (alternating a compute-heavy and a
    light kernel, profiles preloaded so the Table-I corun path engages),
    waits for the burst to drain, repeats.  Logs are bounded the way a
    long-trace deployment would run (``log_limit=64``).
    """
    env = Environment()
    costs = CostModel()
    gpu = SimulatedGPU(env, TITAN_XP, costs, rate_trace_limit=64)
    profiles = ProfileTable(TITAN_XP)
    specs = [by_name(s) for s in CHURN_SPECS]
    for spec in specs:
        profiles.put(spec.name, offline_profile(spec, TITAN_XP, costs))
    sched = SlateScheduler(
        env, gpu, TITAN_XP, costs, profiles=profiles, log_limit=64
    )

    def submitter(env):
        submitted = 0
        while submitted < n_launches:
            k = min(burst, n_launches - submitted)
            last = None
            for i in range(k):
                spec = specs[(submitted + i) % len(specs)]
                last = SlateTicket(
                    spec=spec,
                    profile_key=spec.name,
                    done=env.event(),
                    enqueued_at=env.now,
                )
                sched.submit(last)
            submitted += k
            yield last.done

    env.process(submitter(env))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env, sched, elapsed


def _churn_once(n: int) -> float:
    reset_rates_cache()
    _, sched, elapsed = _scheduler_churn(n)
    assert sched.solo_launches + sched.corun_launches == n
    return elapsed


def test_flight_recorder_overhead_under_gate():
    """Interleaved disabled/enabled churn; gate the best paired ratio."""
    obs_trace.set_sink(None)
    disabled, enabled, events = [], [], 0
    for _ in range(REPS):
        assert not obs_trace.ENABLED
        disabled.append(_churn_once(CHURN_N))
        rec = obs_trace.TraceSink(capacity=4096, detail="light")
        obs_trace.set_sink(rec)
        try:
            assert obs_trace.ENABLED
            enabled.append(_churn_once(CHURN_N))
            events = len(rec) + rec.evicted
        finally:
            obs_trace.set_sink(None)
    # Each rep runs disabled-then-enabled back to back, so the per-pair
    # ratio sees the same machine conditions; the best pair is the
    # cleanest estimate of true recorder overhead.
    overhead = min(en / di for di, en in zip(disabled, enabled))
    # The recorder actually saw the churn (ring filled + evictions).
    assert events > CHURN_N
    assert overhead <= OVERHEAD_GATE, (
        f"flight-recorder overhead {overhead:.3f}x exceeds {OVERHEAD_GATE}x "
        f"(disabled {min(disabled):.3f}s vs enabled {min(enabled):.3f}s "
        f"at {CHURN_N} launches)"
    )


def test_histogram_observe_throughput():
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
    # An observe is a log + dict bump; keep it well under a microsecond.
    assert best / n < 1e-6
