"""Arrival-trace workloads: multi-application scenarios beyond pairs.

The paper evaluates static pairs; a data-center deployment sees a *stream*
of applications arriving over time.  This module generates seeded random
traces (Poisson arrivals over a benchmark mix) and replays them under any
runtime — the scheduler's waiting queue, profiling path, and dynamic
resizing all get exercised with more than two tenants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DeviceConfig, TITAN_XP
from repro.kernels.registry import SHORT_NAMES, by_name
from repro.sim import Environment
from repro.workloads.app import AppResult, AppSpec, run_application
from repro.workloads.harness import make_runtime

__all__ = [
    "TraceEntry",
    "generate_bursty_trace",
    "generate_heavy_tailed_trace",
    "generate_trace",
    "replay_trace",
]


@dataclass(frozen=True)
class TraceEntry:
    """One application arrival."""

    arrival: float
    app: AppSpec


def generate_trace(
    n_apps: int,
    mean_interarrival: float = 20e-3,
    benchmarks: tuple[str, ...] = SHORT_NAMES,
    reps: int = 8,
    seed: int = 0,
) -> list[TraceEntry]:
    """Poisson arrivals over a uniform benchmark mix (deterministic seed)."""
    if n_apps < 1:
        raise ValueError("n_apps must be >= 1")
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=n_apps))
    entries = []
    for i, at in enumerate(arrivals):
        bench = benchmarks[int(rng.integers(len(benchmarks)))]
        entries.append(
            TraceEntry(
                arrival=float(at),
                app=AppSpec(name=f"{bench}@{i}", kernel=by_name(bench), reps=reps),
            )
        )
    return entries


def replay_trace(
    runtime_name: str,
    trace: list[TraceEntry],
    device: DeviceConfig = TITAN_XP,
    preload_profiles: bool = True,
    **runtime_kwargs,
) -> tuple[dict[str, AppResult], object]:
    """Replay ``trace`` under one runtime; returns per-app results."""
    if not trace:
        raise ValueError("empty trace")
    env = Environment()
    runtime = make_runtime(runtime_name, env, device=device, **runtime_kwargs)
    if preload_profiles and hasattr(runtime, "preload_profiles"):
        runtime.preload_profiles([e.app.kernel for e in trace])

    procs = []

    def arrival_proc(env, entry: TraceEntry):
        yield env.timeout(entry.arrival)
        session = runtime.create_session(entry.app.name)
        result = yield from run_application(env, session, entry.app, runtime.costs)
        return result

    for entry in trace:
        procs.append(env.process(arrival_proc(env, entry)))
    env.run(until=env.all_of(procs))
    return {p.value.name: p.value for p in procs}, runtime


def generate_bursty_trace(
    n_bursts: int,
    burst_size: int,
    burst_gap: float = 30e-3,
    intra_burst_jitter: float = 0.5e-3,
    benchmarks: tuple[str, ...] = SHORT_NAMES,
    reps: int = 6,
    seed: int = 0,
) -> list[TraceEntry]:
    """Bursty arrivals: groups of near-simultaneous tenants, then quiet.

    The pattern that stresses the waiting queue hardest — every burst
    front-loads more tenants than the device can co-run, so admission
    order, policy checks against multiple residents, and queue drain all
    get exercised (clusters see exactly this at job-array submit time).
    """
    if n_bursts < 1 or burst_size < 1:
        raise ValueError("n_bursts and burst_size must be >= 1")
    if burst_gap <= 0 or intra_burst_jitter < 0:
        raise ValueError("burst_gap must be positive, jitter non-negative")
    rng = np.random.default_rng(seed)
    entries = []
    idx = 0
    for burst in range(n_bursts):
        base = burst * burst_gap
        for _ in range(burst_size):
            at = base + float(rng.uniform(0, intra_burst_jitter))
            bench = benchmarks[int(rng.integers(len(benchmarks)))]
            entries.append(
                TraceEntry(
                    arrival=at,
                    app=AppSpec(name=f"{bench}@{idx}", kernel=by_name(bench), reps=reps),
                )
            )
            idx += 1
    entries.sort(key=lambda e: e.arrival)
    return entries


def generate_heavy_tailed_trace(
    n_apps: int,
    mean_interarrival: float = 15e-3,
    light_fraction: float = 0.7,
    seed: int = 0,
) -> list[TraceEntry]:
    """A light/heavy tenant mix with Pareto-ish rep counts.

    Most tenants are short light jobs (RG/PF-style); a minority are long
    memory-heavy ones — the population where workload-aware sharing pays
    most, since every heavy tenant has light riders available.
    """
    if not 0.0 <= light_fraction <= 1.0:
        raise ValueError("light_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=n_apps))
    light = ("RG", "PF")
    heavy = ("BS", "GS", "TR", "MM")
    entries = []
    for i, at in enumerate(arrivals):
        if rng.random() < light_fraction:
            bench = light[int(rng.integers(len(light)))]
            reps = 3 + int(rng.pareto(2.0) * 3) % 12
        else:
            bench = heavy[int(rng.integers(len(heavy)))]
            reps = 6 + int(rng.pareto(1.5) * 6) % 24
        entries.append(
            TraceEntry(
                arrival=float(at),
                app=AppSpec(name=f"{bench}@{i}", kernel=by_name(bench), reps=reps),
            )
        )
    return entries
