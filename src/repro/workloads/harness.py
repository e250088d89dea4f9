"""Scenario harness: run applications solo or in pairs under any runtime.

This is the entry point the experiments and benchmarks share: it builds a
fresh simulation per scenario (so runs never contaminate each other),
drives the application processes, and returns their timing breakdowns.

Experiments that need only the apps' times call :func:`app_times`, which
simulates each distinct scenario once per process and keeps just the
floats (see its docstring).  Fig. 7's normalization goes through it too:
:func:`solo_times` gives the CUDA solo baselines and :func:`pair_antt` one
pairing's ANTT against them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.config import (
    CostModel,
    DeviceConfig,
    HostConfig,
    TITAN_XP,
    cache_enabled,
    fingerprint,
)
from repro.cuda.runtime import VanillaCudaRuntime
from repro.kernels.registry import by_name
from repro.mps.server import MpsRuntime
from repro.sim import Environment
from repro.slate.daemon import SlateRuntime
from repro.workloads.app import AppResult, AppSpec, run_application

__all__ = [
    "DEFAULT_COSTS",
    "RUNTIMES",
    "app_for",
    "app_times",
    "make_runtime",
    "pair_antt",
    "pair_apps",
    "reset_app_times",
    "run_many",
    "run_pair",
    "run_solo",
    "solo_times",
]

#: The three schedulers the evaluation compares (§V-A2).
RUNTIMES = {
    "CUDA": VanillaCudaRuntime,
    "MPS": MpsRuntime,
    "Slate": SlateRuntime,
}

#: The cost model of every runtime built without one.  One shared frozen
#: object rather than a fresh ``CostModel()`` per runtime, so its
#: fingerprint text is rendered once per process.
DEFAULT_COSTS = CostModel()


def make_runtime(
    name: str,
    env: Environment,
    device: DeviceConfig = TITAN_XP,
    host: HostConfig = HostConfig(),
    costs: Optional[CostModel] = None,
    **runtime_kwargs,
):
    """Instantiate one of the three runtimes on a fresh environment.

    Without ``costs`` the runtime gets :data:`DEFAULT_COSTS`.
    ``runtime_kwargs`` are forwarded to the runtime constructor (e.g.
    Slate's ``policy``, ``partition_strategy`` or ``enable_grow`` — used by
    the ablation benchmarks).
    """
    try:
        cls = RUNTIMES[name]
    except KeyError:
        raise KeyError(f"unknown runtime {name!r}; known: {sorted(RUNTIMES)}") from None
    return cls(env, device=device, host=host, costs=costs or DEFAULT_COSTS, **runtime_kwargs)


def app_for(bench: str, name: Optional[str] = None, reps: Optional[int] = None) -> AppSpec:
    """Build an AppSpec for a benchmark short name."""
    spec = by_name(bench)
    return AppSpec(name=name or bench, kernel=spec, reps=reps)


def run_solo(
    runtime_name: str,
    app: AppSpec,
    device: DeviceConfig = TITAN_XP,
    costs: Optional[CostModel] = None,
    preload_profiles: bool = True,
    **runtime_kwargs,
) -> tuple[AppResult, object]:
    """Run one application alone; returns (result, runtime)."""
    results, runtime = run_many(
        runtime_name,
        [app],
        device=device,
        costs=costs,
        preload_profiles=preload_profiles,
        **runtime_kwargs,
    )
    return results[app.name], runtime


def run_pair(
    runtime_name: str,
    app_a: AppSpec,
    app_b: AppSpec,
    device: DeviceConfig = TITAN_XP,
    costs: Optional[CostModel] = None,
    preload_profiles: bool = True,
    **runtime_kwargs,
) -> tuple[dict[str, AppResult], object]:
    """Run two applications concurrently; returns ({name: result}, runtime)."""
    return run_many(
        runtime_name,
        [app_a, app_b],
        device=device,
        costs=costs,
        preload_profiles=preload_profiles,
        **runtime_kwargs,
    )


def run_many(
    runtime_name: str,
    apps: "list[AppSpec]",
    arrivals: "Optional[list[float]]" = None,
    device: DeviceConfig = TITAN_XP,
    costs: Optional[CostModel] = None,
    preload_profiles: bool = True,
    **runtime_kwargs,
) -> tuple[dict[str, AppResult], object]:
    """Run N applications concurrently (optionally with arrival offsets).

    The one scenario runner: :func:`run_solo`, :func:`run_pair`,
    :func:`app_times` and :func:`~repro.workloads.trace.replay_trace` all
    run through it.  It builds a fresh runtime (preloading Slate's
    profiles), then runs one process per app: wait out a positive arrival
    (``arrivals`` gives each app's start, default all at t=0), open the
    app's session and run it.  App names must be distinct.
    """
    if not apps:
        raise ValueError("no applications to run")
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise ValueError(
            f"application names must be unique, got {names}: run an app "
            "beside itself under distinct names (use e.g. 'GS#2')"
        )
    if arrivals is not None and len(arrivals) != len(apps):
        raise ValueError("arrivals must match apps in length")
    env = Environment()
    runtime = make_runtime(runtime_name, env, device=device, costs=costs, **runtime_kwargs)
    if preload_profiles and isinstance(runtime, SlateRuntime):
        runtime.preload_profiles([app.kernel for app in apps])

    def tenant(app, delay):
        if delay:
            yield env.timeout(delay)
        session = runtime.create_session(app.name)
        return (yield from run_application(env, session, app, runtime.costs))

    procs = [
        env.process(tenant(app, arrivals[i] if arrivals is not None else 0.0))
        for i, app in enumerate(apps)
    ]
    env.run(until=procs[0] if len(procs) == 1 else env.all_of(procs))
    return {p.value.name: p.value for p in procs}, runtime


def pair_apps(a: str, b: str) -> tuple[AppSpec, AppSpec]:
    """The two apps of pairing ``(a, b)``; an identical pair's second is ``b#2``."""
    return app_for(a), app_for(b, name=f"{b}#2" if a == b else None)


def solo_times(
    benches: Iterable[str],
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = DEFAULT_COSTS,
) -> dict[str, float]:
    """``{bench: CUDA solo app time}``: the baselines ANTT normalizes by."""
    return {
        bench: app_times("CUDA", app_for(bench), device=device, costs=costs)[bench]
        for bench in benches
    }


def pair_antt(
    runtime_name: str,
    a: str,
    b: str,
    solo: dict[str, float],
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = DEFAULT_COSTS,
    **runtime_kwargs,
) -> float:
    """ANTT of pairing ``(a, b)`` under one runtime (Fig. 7's cell).

    ``solo`` holds the benchmarks' CUDA solo times (:func:`solo_times`);
    the pair runs through :func:`app_times`.
    """
    # Imported here: the trace and serving paths import this module but
    # never ANTT, and ``repro.metrics`` loads six modules on import.
    from repro.metrics.antt import antt

    app_a, app_b = pair_apps(a, b)
    shared = app_times(
        runtime_name, app_a, app_b, device=device, costs=costs, **runtime_kwargs
    )
    return antt(shared, {app_a.name: solo[a], app_b.name: solo[b]})


#: App times of each scenario :func:`app_times` has simulated, by fingerprint.
_app_times: dict[str, dict[str, float]] = {}


def app_times(
    runtime_name: str,
    *apps: AppSpec,
    device: DeviceConfig = TITAN_XP,
    costs: CostModel = DEFAULT_COSTS,
    **runtime_kwargs,
) -> dict[str, float]:
    """``{app name: app_time}`` of one or two apps run solo or as a pair.

    Runs the same :func:`run_many` as :func:`run_solo` or :func:`run_pair`,
    so every number is bit-identical to a direct call, but simulates each
    distinct input once per process: the times are kept under the :func:`fingerprint` of
    the runtime, the apps, the device, the cost model and
    ``runtime_kwargs``.  ``costs`` always enters the key, so a call that
    passes the default shares entries with one that omits it.  Only the
    floats are kept, never a runtime or its results.
    ``runtime_kwargs`` must therefore be values the fingerprint
    renders in full (names, enums, frozen dataclasses such as a
    ``PolicyTable``, scalars), not stateful objects such as a policy
    instance.  ``REPRO_NO_CACHE=1`` simulates every call;
    :func:`reset_app_times` forgets what is kept.
    """
    if len(apps) not in (1, 2):
        raise ValueError(f"app_times runs one or two apps, got {len(apps)}")
    key = None
    if cache_enabled():
        key = fingerprint(
            runtime_name, apps, device, costs, sorted(runtime_kwargs.items())
        )
        kept = _app_times.get(key)
        if kept is not None:
            return dict(kept)
    results, _ = run_many(
        runtime_name, list(apps), device=device, costs=costs, **runtime_kwargs
    )
    times = {name: result.app_time for name, result in results.items()}
    if key is not None:
        _app_times[key] = times
    return dict(times)


def reset_app_times() -> None:
    """Forget every scenario :func:`app_times` has kept."""
    _app_times.clear()
