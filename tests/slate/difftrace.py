"""Shared decision-trace capture for the differential policy harness.

The tentpole refactor moves every scheduling choice behind the
``SchedulingPolicy`` interface; the proof obligation is that the default
``table1`` policy is *decision-for-decision identical* to the seed
scheduler.  This module is the common ground both sides stand on:

* :func:`replay` drives any scheduler class (the live ``SlateScheduler``
  or the frozen seed copy in ``_seed_scheduler.py``) through an arrival
  workload and returns the drained scheduler with its tickets;
  :func:`scheduler_trace` returns its full decision trace;
* :func:`fig4_trace` / :func:`tab1_trace` capture the daemon-level traces
  of the two canonical paper workloads (goldens live in
  ``tests/slate/goldens/``);
* :func:`sliced_nway4_counters` captures the sliced 4-wide co-run's
  decisions, final clock and every ticket's counters (golden
  ``sliced_nway4_counters.json``);
* :func:`rows_from` normalizes ``Decision`` records into plain tuples so
  traces can be compared byte-exact and round-tripped through JSON.

Workload entries are ``(arrival, bench, priority, deadline)`` tuples;
``deadline`` is carried only if the ticket dataclass has the field, so the
same workloads replay against the pre-refactor seed scheduler unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from repro.config import CostModel, TITAN_XP
from repro.gpu.device import SimulatedGPU
from repro.kernels.registry import by_name
from repro.sim import Environment
from repro.slate.profiler import ProfileTable, offline_profile

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The benchmark mix the randomized differential traces draw from.
BENCHES = ("BS", "GS", "MM", "RG", "TR")


def rows_from(decisions) -> list:
    """Normalize a decision log into comparable, JSON-stable rows."""
    return [
        [d.time, d.kind, d.kernel, list(d.classes), d.sms, d.reason]
        for d in decisions
    ]


def _make_ticket(ticket_cls, env, spec, priority, deadline, task_size):
    kwargs = dict(
        spec=spec,
        profile_key=spec.name,
        done=env.event(),
        enqueued_at=env.now,
        priority=priority,
        task_size=task_size,
    )
    field_names = {f.name for f in dataclasses.fields(ticket_cls)}
    if deadline is not None and "deadline" in field_names:
        kwargs["deadline"] = deadline
    return ticket_cls(**kwargs)


def nway4_workload():
    """The 4-wide golden's workload (seed 54): 32 launches in 6 ms.

    At ``max_corun=4`` with preemption this reaches 4-way co-residency
    (the widest any committed workload runs), so the derived rates of
    every co-run width up to 4 are pinned through the decision times.
    """
    rng = random.Random(54)
    return [
        (rng.random() * 6e-3, BENCHES[rng.randrange(5)], rng.randrange(3), None)
        for _ in range(32)
    ]


def replay(
    workload,
    scheduler_cls,
    ticket_cls,
    preload: bool = True,
    enable_preemption: bool = False,
    max_corun: int = 2,
    partition_strategy: str = "heuristic",
    task_size: int = 10,
    **scheduler_kwargs,
):
    """Replay ``workload`` through a scheduler; return (scheduler, tickets).

    ``workload`` is a sequence of ``(arrival, bench, priority, deadline)``
    tuples (``bench`` is a registry short name).  Profiles are preloaded
    offline unless ``preload=False`` (which exercises the first-run
    profiling path).  The run always drains: the scheduler's decision log
    covers every submitted launch, and ``tickets`` lists them in
    submission order.
    """
    env = Environment()
    costs = CostModel()
    gpu = SimulatedGPU(env, TITAN_XP, costs)
    profiles = ProfileTable(TITAN_XP)
    specs = {}
    for _, bench, _, _ in workload:
        if bench not in specs:
            specs[bench] = by_name(bench)
    if preload:
        for bench, spec in specs.items():
            profiles.put(spec.name, offline_profile(spec, TITAN_XP, costs))
    sched = scheduler_cls(
        env,
        gpu,
        TITAN_XP,
        costs,
        profiles=profiles,
        enable_preemption=enable_preemption,
        max_corun=max_corun,
        partition_strategy=partition_strategy,
        **scheduler_kwargs,
    )
    tickets = []

    def arrival(env, at, spec, priority, deadline):
        if at > env.now:
            yield env.timeout(at - env.now)
        ticket = _make_ticket(ticket_cls, env, spec, priority, deadline, task_size)
        tickets.append(ticket)
        sched.submit(ticket)

    procs = [
        env.process(arrival(env, at, specs[bench], priority, deadline))
        for at, bench, priority, deadline in sorted(workload, key=lambda w: w[0])
    ]
    env.run(until=env.all_of(procs))
    env.run()
    return sched, tickets


def scheduler_trace(workload, scheduler_cls, ticket_cls, **kwargs):
    """Replay ``workload`` (see :func:`replay`); return (rows, scheduler)."""
    sched, _ = replay(workload, scheduler_cls, ticket_cls, **kwargs)
    return rows_from(sched.decision_log), sched


def sliced_nway4_counters() -> tuple[dict, object]:
    """The sliced 4-wide co-run: decisions, final clock, ticket counters.

    :func:`nway4_workload` with slicing on reaches 4-way co-residency and
    exercises slice dispatch, slice-edge preemption and edge resizes.  The
    returned record holds every ``KernelCounters`` field of every ticket,
    so each settle expression of the device's hot path is pinned bit for
    bit (JSON floats round-trip exactly).  Returns (record, scheduler).
    """
    from repro.slate.scheduler import SlateScheduler, SlateTicket

    sched, tickets = replay(
        nway4_workload(),
        SlateScheduler,
        SlateTicket,
        max_corun=4,
        enable_preemption=True,
        slicing=True,
    )
    record = {
        "rows": rows_from(sched.decision_log),
        "now": sched.env.now,
        "counters": [dataclasses.asdict(t.counters) for t in tickets],
    }
    return record, sched


def fig4_trace() -> list:
    """Decision trace of the paper's Figure 4 scenario (BS + RG + TR)."""
    from repro.experiments import fig4_decisions

    return rows_from(fig4_decisions.run().decisions)


def tab1_trace() -> list:
    """Decision trace of the Table-I class representatives as a workload.

    One session per intensity-class representative, staggered arrivals,
    three launches each — every row/column class of the policy table shows
    up as both the running tenant and the candidate.
    """
    from repro.experiments.tab1_policy import class_representatives
    from repro.slate.daemon import SlateRuntime
    from repro.workloads.app import AppSpec, run_application

    env = Environment()
    runtime = SlateRuntime(env)
    # The representatives carry names like "syn-H_C"; the daemon's textual
    # injection path needs C identifiers, so rename them for this workload.
    reps = {
        cls: dataclasses.replace(spec, name=f"syn{cls.value.replace('_', '')}")
        for cls, spec in class_representatives().items()
    }
    runtime.preload_profiles(list(reps.values()))
    procs = []
    for i, (cls, spec) in enumerate(sorted(reps.items(), key=lambda kv: kv[0].value)):
        app = AppSpec(name=f"{cls.value}-app", kernel=spec, reps=3)

        def staged(env, app=app, delay=i * 0.9e-3):
            yield env.timeout(delay)
            session = runtime.create_session(app.name)
            result = yield from run_application(env, session, app, runtime.costs)
            return result

        procs.append(env.process(staged(env)))
    env.run(until=env.all_of(procs))
    return rows_from(runtime.scheduler.decision_log)


def load_golden(name: str) -> list:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def save_golden(name: str, rows: list) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.json", "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
