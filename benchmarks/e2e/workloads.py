"""The benchmark's five workloads and what one repetition of each does.

A repetition ("rep") runs in a fresh worker process (see ``worker.py``)
with an empty cache directory, so every rep pays the same cold in-process
and on-disk cache costs a user pays once per process.  Each rep's inputs
come only from the seed; the program sees nothing but the generated
inputs.

Work per rep is fixed by the seed and the run length (``seconds``), never
by the clock: a trace rep replays ``launches_per_s * seconds`` launches,
so its simulated results are the same on every machine and every run.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from benchmarks.e2e.layers import ENGINE_SITES, install

__all__ = [
    "PROBE_REF_S",
    "BatteryWorkload",
    "HostTimer",
    "ServeWorkload",
    "TraceWorkload",
    "WORKLOADS",
    "counter_delta",
    "engine_counters",
    "host_probe",
    "peak_rss_mb",
    "plan_apps",
    "traced",
]

#: Reps of an untraced trace or serve run, each ``seconds / REPS`` long.
REPS = 5
#: Experiments per timing window of a battery rep.
BATTERY_WINDOW = 4

#: Scheduler counters the program mirrors into its metrics registry.
SCHEDULER_COUNTERS = (
    "decisions",
    "submits",
    "rejections",
    "solo_launches",
    "corun_launches",
    "resizes",
    "preemptions",
)


@dataclass(frozen=True)
class TraceWorkload:
    """A closed tenant population replaying apps through the Slate API."""

    name: str
    #: One tenant per entry: the kernel it runs, app after app.
    kernels: tuple[str, ...]
    #: Launch rate (host, reference machine) that sizes a rep's fixed work.
    launches_per_s: float
    #: Simulated seconds per timing window (~0.3 s of host time).
    window_sim_s: float
    runtime: dict = field(default_factory=dict)
    #: Tenant index -> scheduling priority (default 0).
    priorities: dict = field(default_factory=dict)
    kind: str = "trace"

    def reps(self, seconds: float) -> int:
        return REPS

    def run(self, seed, seconds, tracer, mark_ready, per_layer, daemon_cpu) -> dict:
        return run_trace(self, seed, seconds, tracer, mark_ready)


@dataclass(frozen=True)
class ServeWorkload:
    """The served path: a ``repro serve`` daemon under two connections."""

    name: str
    shards: int = 1
    #: Send each connection's first kernel as the hello ``kernel_hint``.
    hints: bool = False
    kind: str = "serve"

    def reps(self, seconds: float) -> int:
        return REPS

    def run(self, seed, seconds, tracer, mark_ready, per_layer, daemon_cpu) -> dict:
        from benchmarks.e2e.serve_load import run_serve

        return run_serve(
            self, seed, seconds, tracer, open_loop=per_layer, daemon_cpu=daemon_cpu
        )


@dataclass(frozen=True)
class BatteryWorkload:
    """Every experiment of the reproduction, serially, from a cold cache."""

    name: str
    #: Wall seconds one battery rep takes on the reference machine.
    rep_seconds: float = 2.0
    kind: str = "battery"

    def reps(self, seconds: float) -> int:
        return max(1, round(seconds / self.rep_seconds))

    def run(self, seed, seconds, tracer, mark_ready, per_layer, daemon_cpu) -> dict:
        return run_battery(self, seed, tracer, mark_ready)


_TRACE_LOGS = {"log_limit": 64, "rate_trace_limit": 64}

WORKLOADS = {
    w.name: w
    for w in (
        TraceWorkload(
            "trace_pair",
            kernels=("BS", "GS", "MM", "RG", "TR") * 2,
            launches_per_s=9000.0,
            window_sim_s=7.0,
            runtime={"max_corun": 2, "policy": "table1", **_TRACE_LOGS},
        ),
        TraceWorkload(
            "trace_nway_sliced",
            kernels=("RG", "PF", "KM", "MM", "HS", "BS", "RG", "PF"),
            launches_per_s=1600.0,
            window_sim_s=1.6,
            runtime={
                "max_corun": 4,
                "policy": "table1",
                "slicing": True,
                "enable_preemption": True,
                **_TRACE_LOGS,
            },
            priorities={0: 2, 6: 1},
        ),
        ServeWorkload("serve_1shard"),
        ServeWorkload("serve_2shard", shards=2, hints=True),
        BatteryWorkload("battery_cold"),
    )
}


@contextlib.contextmanager
def traced(tracer, sites=ENGINE_SITES, policy: bool = True):
    """Install the layer wrappers and open the root span (no-op untraced)."""
    if tracer is None:
        yield
        return
    with install(tracer, sites, policy=policy), tracer.span("harness"):
        yield


def engine_counters(envs=()) -> dict:
    """Process-wide engine and scheduler counters, plus ``envs``' own stats.

    ``Environment.run`` folds each run's counters into the process-wide
    aggregate; an environment only ever stepped (a serving shard) never
    does, so its stats are added explicitly.
    """
    from repro.gpu.rates import rates_cache_info
    from repro.obs.registry import registry
    from repro.sim import aggregate_stats

    out = aggregate_stats().snapshot()
    for env in envs:
        for key, value in env.stats.snapshot().items():
            out[key] += value
    reg = registry()
    for name in SCHEDULER_COUNTERS:
        out[f"scheduler.{name}"] = reg.counter(f"scheduler.{name}").value
    memo = rates_cache_info()
    out["memo.hits"] = memo["hits"]
    out["memo.misses"] = memo["misses"]
    return out


def host_probe(cpu: int | None = None, reps: int = 5) -> float:
    """Seconds a fixed pure-Python loop takes now, best of ``reps``.

    The loop runs on ``cpu`` (default: where the calling thread runs).
    """
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, own if cpu is None else {cpu})
    try:
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            total = 0
            for i in range(50_000):
                total += i * i % 7
            best = min(best, time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, own)
    return best


#: What :func:`host_probe` takes on the reference machine when nothing else
#: competes for its CPU.  Never change it: it defines the reference second.
PROBE_REF_S = 3.4e-3


class HostTimer:
    """Wall time of a run measured in windows, with a host probe between.

    A shared host's speed drifts by tens of percent over seconds to
    minutes.  Each window's wall time is also scaled to the reference host
    by ``PROBE_REF_S / probe``, ``probe`` being the mean of the probes
    taken on either side of it: ``ref_wall_s`` is what the windows would
    have taken at the reference host's speed.  The probes run on ``cpu``,
    the CPU whose work bounds the run (default: the caller's).
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.probes = [host_probe(cpu)]
        self.wall_s = 0.0
        self.ref_wall_s = 0.0

    @contextlib.contextmanager
    def window(self):
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        self.probes.append(host_probe(self.cpu))
        self.wall_s += wall
        probe = (self.probes[-2] + self.probes[-1]) / 2
        self.ref_wall_s += wall * PROBE_REF_S / probe

    def record(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "ref_wall_s": self.ref_wall_s,
            # The first probe directly follows set-up.
            "setup_probe_s": self.probes[0],
        }


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) in MB of process ``pid``, summed with
    every live process it started (a daemon's shard processes).

    Unlike ``ru_maxrss``, which keeps the high-water mark of the image a
    process replaced at exec, this covers only the program itself.
    """
    total_kb, pending = 0, [pid]
    while pending:
        proc = pending.pop()
        with open(f"/proc/{proc}/status") as fh:
            total_kb += next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
        for task in os.listdir(f"/proc/{proc}/task"):
            with open(f"/proc/{proc}/task/{task}/children") as fh:
                pending += map(int, fh.read().split())
    return total_kb / 1024


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def plan_apps(seed: int, tenant: int, launches: int) -> list[int]:
    """One tenant's apps, back to back: launch counts drawn in [4, 12]."""
    rng = random.Random(f"{seed}:{tenant}")
    plan = []
    while launches > 0:
        reps = min(launches, rng.randint(4, 12))
        plan.append(reps)
        launches -= reps
    return plan


def run_trace(wl: TraceWorkload, seed, seconds, tracer, mark_ready) -> dict:
    from repro.cuda.errors import CudaError
    from repro.kernels.registry import by_name
    from repro.sim import Environment
    from repro.slate.policy import AdmissionRejected
    from repro.workloads.app import AppSpec, run_application
    from repro.workloads.harness import make_runtime

    per_tenant = max(1, round(wl.launches_per_s * seconds / len(wl.kernels)))
    plans = [plan_apps(seed, i, per_tenant) for i in range(len(wl.kernels))]
    tally = {"completed": 0, "failed": 0}
    turnaround: list[float] = []
    ends: list[float] = []
    errors: list[str] = []
    before = engine_counters()
    with traced(tracer):
        env = Environment()
        runtime = make_runtime("Slate", env, **wl.runtime)
        specs = {k: by_name(k) for k in wl.kernels}
        runtime.preload_profiles(list(specs.values()))

        def tenant(env, index, kernel, plan):
            for n, reps in enumerate(plan):
                session = runtime.create_session(f"t{index}.{n}")
                app = AppSpec(
                    name=session.name,
                    kernel=specs[kernel],
                    reps=reps,
                    priority=wl.priorities.get(index, 0),
                )
                try:
                    result = yield from run_application(env, session, app, runtime.costs)
                except (CudaError, AdmissionRejected) as exc:
                    # One failed app never aborts the replay.
                    session.close()
                    tally["failed"] += reps
                    errors.append(f"{app.name}: {type(exc).__name__}: {exc}")
                    continue
                tally["completed"] += result.launches - result.rejected_launches
                tally["failed"] += result.rejected_launches
                turnaround.append(result.app_time)
                ends.append(result.end)

        for i, kernel in enumerate(wl.kernels):
            env.process(tenant(env, i, kernel, plans[i]))
        mark_ready()
        timer = HostTimer()
        # Stopping the engine at a window edge and resuming it is exact:
        # the stop event is URGENT and only shifts later tie-break ids.
        while env.peek() != float("inf"):
            with timer.window():
                env.run(until=env.now + wl.window_sim_s)
    counters = counter_delta(before, engine_counters())
    sched = runtime.scheduler
    planned = sum(map(sum, plans))
    checks = {
        "planned == completed + failed": planned
        == tally["completed"] + tally["failed"],
        "scheduler drained": sched.waiting_count == 0 and sched.running_count == 0,
        "every planned launch scheduled once": sched.solo_launches + sched.corun_launches
        == planned,
    }
    # Percentiles by linear interpolation, as repro.serve.loadgen gives them.
    cuts = statistics.quantiles(turnaround, n=100, method="inclusive")
    return {
        "ops": tally["completed"],
        **timer.record(),
        "attempted": planned,
        "failed": tally["failed"],
        "checks": checks,
        "errors": errors[:5],
        "sim": {
            "makespan_s": max(ends, default=0.0),
            "turnaround_p50_ms": cuts[49] * 1e3,
            "turnaround_p99_ms": cuts[98] * 1e3,
        },
        "counters": {"worker": counters},
    }


def run_battery(wl: BatteryWorkload, seed, tracer, mark_ready) -> dict:
    from repro.experiments.runner import EXPERIMENTS

    # The seed orders the battery: which experiment pays each cold cache
    # varies, while every output must stay byte-identical to its golden.
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    times: dict[str, float] = {}
    outputs: dict[str, str] = {}
    before = engine_counters()
    with traced(tracer):
        mark_ready()
        timer = HostTimer()
        for first in range(0, len(order), BATTERY_WINDOW):
            with timer.window():
                for experiment in order[first:first + BATTERY_WINDOW]:
                    t0 = time.perf_counter()
                    with tracer.span("experiment") if tracer else contextlib.nullcontext():
                        outputs[experiment.key] = experiment.format(experiment.run())
                    times[experiment.key] = time.perf_counter() - t0
    return {
        "ops": len(order),
        **timer.record(),
        "attempted": len(order),
        "failed": 0,
        "checks": {},
        "errors": [],
        "times": times,
        "outputs": outputs,
        "counters": {"worker": counter_delta(before, engine_counters())},
    }
