"""Multi-GPU placement study (extension): class-aware vs naive placement.

Four tenants — two memory-saturating (BS, GS), two light (RG) — arrive at
a 2-GPU node in the adversarial order BS, RG, GS, RG.  Round-robin and
least-loaded both co-locate the two memory hogs; class-aware placement
(the Table I machinery applied *across* devices) separates them and pairs
each with a light rider, so both devices co-run complementary kernels.
Placement and devices are the serving daemon's: a
:class:`~repro.slate.placement.PlacementBook` places each app on one of
two shards (:class:`~repro.slate.placement.Shard`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.kernels.blackscholes import blackscholes
from repro.kernels.gaussian import gaussian
from repro.kernels.quasirandom import quasirandom
from repro.metrics.report import format_table
from repro.slate.placement import PlacementBook, Shard
from repro.workloads.app import AppSpec, run_application

__all__ = ["ClusterStudyResult", "run", "run_on_fleet", "format_result"]


def _apps() -> list[AppSpec]:
    return [
        AppSpec(name="pricing(BS)", kernel=blackscholes(), reps=6),
        AppSpec(name="mc-1(RG)", kernel=quasirandom(), reps=6),
        AppSpec(name="solver(GS)", kernel=gaussian(), reps=6),
        AppSpec(name="mc-2(RG)", kernel=quasirandom(num_blocks=48_000), reps=6),
    ]


@dataclass(frozen=True)
class PlacementOutcome:
    placement: str
    makespan: float
    total_coruns: int
    #: device index -> sorted tenant names.
    groups: dict[int, tuple[str, ...]]

    @property
    def hogs_separated(self) -> bool:
        for tenants in self.groups.values():
            hogs = sum(t.startswith(("pricing", "solver")) for t in tenants)
            if hogs > 1:
                return False
        return True


@dataclass(frozen=True)
class ClusterStudyResult:
    outcomes: tuple[PlacementOutcome, ...]

    def outcome(self, placement: str) -> PlacementOutcome:
        for o in self.outcomes:
            if o.placement == placement:
                return o
        raise KeyError(placement)


#: The study's placement labels -> the book's placements (``class-aware``
#: is the book's ``contention`` scoring), in table order.
PLACEMENTS = {
    "round-robin": "round-robin",
    "least-loaded": "least-loaded",
    "class-aware": "contention",
}


def run_on_fleet(
    apps: list[AppSpec],
    placement: str,
    num_shards: int = 2,
    device: DeviceConfig = TITAN_XP,
) -> tuple[list, list[int], list[Shard]]:
    """Place ``apps`` in order with a :class:`PlacementBook` (each hinted
    with its kernel), run each on its shard's own environment, and run
    every shard to completion: ``(app results, shard of each app, shards)``.
    """
    book = PlacementBook(num_shards, placement=placement)
    shards = [Shard(i, device=device) for i in range(num_shards)]
    placed = []
    procs = []
    for app in apps:
        hint = app.kernel.name
        candidate = shards[0].classify(hint)
        index, _ = book.place(candidate)
        book.note_open(index, app.name, candidate)
        placed.append(index)
        shard = shards[index]
        session = shard.open_session(app.name, kernel_hint=hint)
        procs.append(
            shard.env.process(
                run_application(shard.env, session, app, shard.runtime.costs)
            )
        )
    for shard in shards:
        shard.env.run()
    return [p.value for p in procs], placed, shards


def _outcome(label: str, device: DeviceConfig) -> PlacementOutcome:
    apps = _apps()
    results, placed, shards = run_on_fleet(apps, PLACEMENTS[label], device=device)
    groups: dict[int, list[str]] = {0: [], 1: []}
    for app, index in zip(apps, placed):
        groups[index].append(app.name)
    return PlacementOutcome(
        placement=label,
        makespan=max(r.end for r in results),
        total_coruns=sum(s.runtime.scheduler.corun_launches for s in shards),
        groups={k: tuple(sorted(v)) for k, v in groups.items()},
    )


def run(device: DeviceConfig = TITAN_XP) -> ClusterStudyResult:
    return ClusterStudyResult(
        outcomes=tuple(_outcome(label, device) for label in PLACEMENTS)
    )


def format_result(result: ClusterStudyResult) -> str:
    rows = [
        (
            o.placement,
            o.makespan * 1e3,
            o.total_coruns,
            "yes" if o.hogs_separated else "NO",
            " + ".join(o.groups[0]),
            " + ".join(o.groups[1]),
        )
        for o in result.outcomes
    ]
    table = format_table(
        ["placement", "makespan (ms)", "coruns", "hogs split", "GPU 0", "GPU 1"],
        rows,
        title="2-GPU placement study (arrival order BS, RG, GS, RG)",
    )
    ca = result.outcome("class-aware")
    rr = result.outcome("round-robin")
    return (
        f"{table}\n"
        f"class-aware placement finishes {1 - ca.makespan / rr.makespan:.1%} "
        "sooner than round-robin by keeping the memory hogs apart"
    )
