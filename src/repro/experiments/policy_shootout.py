"""Policy shoot-out: every registered scheduling policy on one trace.

The pluggable-policy refactor (``repro.slate.policy``) makes the
scheduler pure mechanism; this experiment is the head-to-head that
justifies it.  One deterministic Poisson arrival trace — decorated with a
priority mix and, for a quarter of the apps, a per-launch deadline — is
replayed under each policy in :func:`repro.slate.policy.policy_names`,
and the same simulated-time metrics are reported for all of them:

* **throughput** — completed launches per simulated second of makespan;
* **turnaround** — per-app mean and p99 (arrival to completion,
  queueing included);
* **fairness** — Jain's index over per-app speeds vs a solo Slate
  baseline (1.0 = perfectly even slowdowns);
* **corun share** — what fraction of launches the policy co-scheduled;
* **rejected** — launches refused at admission (only ``edf`` rejects).

Every number is derived from the deterministic simulation clock, so the
table is byte-stable and pinned by the golden suite.  ``table1`` is the
seed scheduler's behavior by construction (the differential harness in
``tests/slate/test_policy_differential.py`` proves it decision-for-
decision); the other rows show what each alternative trades away.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.metrics.fairness import fairness_index
from repro.metrics.report import format_table, percentile
from repro.slate.policy import policy_names
from repro.workloads.harness import app_for, app_times
from repro.workloads.trace import TraceEntry, generate_trace, replay_trace

__all__ = [
    "ShootoutRow",
    "ShootoutResult",
    "build_trace",
    "solo_baseline",
    "run_policy",
    "run",
    "format_result",
]

#: Deadline slack (seconds) granted to every deadline-carrying launch.
#: Chosen between the cheap kernels' and the intensive kernels' solo
#: per-launch times so ``edf`` admits the former and rejects the latter.
DEADLINE_SLACK = 2.5e-3


@dataclass(frozen=True)
class ShootoutRow:
    """One policy's scorecard on the shared trace."""

    policy: str
    makespan: float
    completed: int
    rejected: int
    mean_turnaround: float
    p99_turnaround: float
    fairness: float
    corun_share: float

    @property
    def throughput(self) -> float:
        """Completed launches per simulated second."""
        return self.completed / self.makespan


@dataclass(frozen=True)
class ShootoutResult:
    rows: tuple[ShootoutRow, ...]
    n_apps: int
    reps: int

    def row(self, policy: str) -> ShootoutRow:
        for r in self.rows:
            if r.policy == policy:
                return r
        raise KeyError(policy)


def build_trace(
    n_apps: int = 12, reps: int = 4, seed: int = 7
) -> list[TraceEntry]:
    """The shared workload: Poisson arrivals + priority/deadline mix.

    Priorities cycle 0/1/2 (exercises ``fair-share`` weighting and the
    priority-FIFO queue) and every fourth app carries a per-launch
    deadline of :data:`DEADLINE_SLACK` (exercises ``edf`` admission —
    every other policy ignores it).
    """
    trace = generate_trace(n_apps, mean_interarrival=4e-3, reps=reps, seed=seed)
    decorated = []
    for i, entry in enumerate(trace):
        app = dataclasses.replace(
            entry.app,
            priority=i % 3,
            deadline_slack=DEADLINE_SLACK if i % 4 == 3 else None,
        )
        decorated.append(TraceEntry(arrival=entry.arrival, app=app))
    return decorated


def solo_baseline(
    trace: list[TraceEntry], reps: int, device: DeviceConfig = TITAN_XP
) -> dict[str, float]:
    """Per-app solo Slate times (the fairness denominator — the same for
    every policy, so rows are comparable)."""
    solo_by_bench: dict[str, float] = {}
    solo: dict[str, float] = {}
    for entry in trace:
        bench = entry.app.name.split("@")[0]
        if bench not in solo_by_bench:
            solo_by_bench[bench] = app_times(
                "Slate", app_for(bench, reps=reps), device=device
            )[bench]
        solo[entry.app.name] = solo_by_bench[bench]
    return solo


def run_policy(
    policy: str,
    trace: list[TraceEntry],
    solo: dict[str, float],
    device: DeviceConfig = TITAN_XP,
) -> ShootoutRow:
    """Replay the shared trace under one policy; return its scorecard."""
    results, runtime = replay_trace("Slate", trace, device=device, policy=policy)
    sched = runtime.scheduler
    turnarounds = [r.app_time for r in results.values()]
    placed = sched.solo_launches + sched.corun_launches
    return ShootoutRow(
        policy=policy,
        makespan=max(r.end for r in results.values()),
        completed=sum(r.launches - r.rejected_launches for r in results.values()),
        rejected=sum(r.rejected_launches for r in results.values()),
        mean_turnaround=sum(turnarounds) / len(turnarounds),
        p99_turnaround=percentile(turnarounds, 99.0),
        fairness=fairness_index(
            {name: r.app_time for name, r in results.items()}, solo
        ),
        corun_share=sched.corun_launches / placed if placed else 0.0,
    )


def run(
    n_apps: int = 12,
    reps: int = 4,
    seed: int = 7,
    device: DeviceConfig = TITAN_XP,
) -> ShootoutResult:
    """Replay the shared trace under every registered policy."""
    trace = build_trace(n_apps=n_apps, reps=reps, seed=seed)
    solo = solo_baseline(trace, reps=reps, device=device)
    rows = tuple(run_policy(p, trace, solo, device=device) for p in policy_names())
    return ShootoutResult(rows=rows, n_apps=n_apps, reps=reps)


def format_result(result: ShootoutResult) -> str:
    rows = [
        (
            r.policy,
            f"{r.makespan * 1e3:.3f}",
            f"{r.throughput:.0f}",
            f"{r.mean_turnaround * 1e3:.3f}",
            f"{r.p99_turnaround * 1e3:.3f}",
            f"{r.fairness:.3f}",
            f"{r.corun_share:.0%}",
            r.rejected,
        )
        for r in result.rows
    ]
    table = format_table(
        [
            "policy",
            "makespan (ms)",
            "launches/s",
            "mean turn (ms)",
            "p99 turn (ms)",
            "Jain",
            "corun",
            "rejected",
        ],
        rows,
        title=(
            f"Policy shoot-out — {result.n_apps} apps x {result.reps} launches, "
            "one shared trace"
        ),
    )
    return (
        f"{table}\n"
        "same trace, same device: table1 is the paper's Table I policy "
        "(byte-identical to the seed scheduler); edf is the only policy "
        "that rejects launches whose deadline its runtime estimate rules "
        "infeasible."
    )
