"""Scenario harness: run applications solo or in pairs under any runtime.

This is the entry point the experiments and benchmarks share: it builds a
fresh simulation per scenario (so runs never contaminate each other),
drives the application processes, and returns their timing breakdowns.

Experiments that need only the apps' times call :func:`app_times`, which
simulates each distinct scenario once per process and keeps just the
floats (see its docstring).
"""

from __future__ import annotations

from typing import Optional

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
    "reset_app_times",
    "run_many",
    "run_pair",
    "run_solo",
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


def _preload_if_slate(runtime, apps: list[AppSpec]) -> None:
    if isinstance(runtime, SlateRuntime):
        runtime.preload_profiles([app.kernel for app in apps])


def run_solo(
    runtime_name: str,
    app: AppSpec,
    device: DeviceConfig = TITAN_XP,
    costs: Optional[CostModel] = None,
    preload_profiles: bool = True,
    **runtime_kwargs,
) -> tuple[AppResult, object]:
    """Run one application alone; returns (result, runtime)."""
    env = Environment()
    runtime = make_runtime(runtime_name, env, device=device, costs=costs, **runtime_kwargs)
    if preload_profiles:
        _preload_if_slate(runtime, [app])
    session = runtime.create_session(app.name)
    proc = env.process(run_application(env, session, app, runtime.costs))
    result = env.run(until=proc)
    return result, runtime


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
    if app_a.name == app_b.name:
        raise ValueError("pair applications need distinct names (use e.g. 'GS#2')")
    env = Environment()
    runtime = make_runtime(runtime_name, env, device=device, costs=costs, **runtime_kwargs)
    if preload_profiles:
        _preload_if_slate(runtime, [app_a, app_b])
    procs = []
    for app in (app_a, app_b):
        session = runtime.create_session(app.name)
        procs.append(env.process(run_application(env, session, app, runtime.costs)))
    env.run(until=procs[0] & procs[1])
    results = {p.value.name: p.value for p in procs}
    return results, runtime


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

    Generalizes :func:`run_pair` to arbitrary tenant counts; ``arrivals``
    gives each app's start delay (default: all at t=0).  App names must be
    unique.
    """
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise ValueError(f"application names must be unique, got {names}")
    if arrivals is not None and len(arrivals) != len(apps):
        raise ValueError("arrivals must match apps in length")
    env = Environment()
    runtime = make_runtime(runtime_name, env, device=device, costs=costs, **runtime_kwargs)
    if preload_profiles:
        _preload_if_slate(runtime, apps)

    procs = []
    for i, app in enumerate(apps):
        delay = arrivals[i] if arrivals is not None else 0.0

        def staged(env, app=app, delay=delay):
            if delay:
                yield env.timeout(delay)
            session = runtime.create_session(app.name)
            result = yield from run_application(env, session, app, runtime.costs)
            return result

        procs.append(env.process(staged(env)))
    env.run(until=env.all_of(procs))
    return {p.value.name: p.value for p in procs}, runtime


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

    Runs the same :func:`run_solo` or :func:`run_pair` as a direct call, so
    every number is bit-identical to one, but simulates each distinct input
    once per process: the times are kept under the :func:`fingerprint` of
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
    if len(apps) == 1:
        result, _ = run_solo(
            runtime_name, apps[0], device=device, costs=costs, **runtime_kwargs
        )
        times = {apps[0].name: result.app_time}
    else:
        results, _ = run_pair(
            runtime_name, *apps, device=device, costs=costs, **runtime_kwargs
        )
        times = {name: result.app_time for name, result in results.items()}
    if key is not None:
        _app_times[key] = times
    return dict(times)


def reset_app_times() -> None:
    """Forget every scenario :func:`app_times` has kept."""
    _app_times.clear()
