"""Run the complete experiment battery and emit the consolidated report.

``python -m repro.experiments.runner`` reproduces every table and figure
and prints paper-vs-measured summaries (the source for EXPERIMENTS.md).

Each experiment builds its own :class:`~repro.sim.Environment`, so the
battery is embarrassingly parallel: ``--jobs N`` shards the experiment
table across a :class:`~concurrent.futures.ProcessPoolExecutor`.  Results
are reported in table order regardless of completion order and every
emitted number is bit-identical to the serial path (the simulations are
deterministic and workers return the same picklable result objects).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.experiments import (
    ablations,
    cluster_study,
    scaling,
    fig3_transform,
    fig4_decisions,
    sweep,
    validation,
    fig1_stream,
    fig5_tasksize,
    fig6_overhead,
    fig7_pairings,
    generalization,
    policy_shootout,
    retreat_vs_slice,
    tab1_policy,
    tab2_profiles,
    tab3_gaussian,
    tab4_bsrg,
    tab5_operations,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentRun",
    "UnknownExperimentError",
    "experiment_keys",
    "select_keys",
    "iter_battery",
    "run_battery",
    "run_all",
    "format_profile_table",
    "main",
]


@dataclass(frozen=True)
class Experiment:
    key: str
    title: str
    run: Callable[[], Any]
    format: Callable[[Any], str]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("fig1", "Figure 1 — Stream bandwidth vs SMs", fig1_stream.run, fig1_stream.format_result),
    Experiment("tab1", "Table I — corun/solo policy validation", tab1_policy.run, tab1_policy.format_result),
    Experiment("fig3", "Figure 3 — kernel transformation demo", fig3_transform.run, fig3_transform.format_result),
    Experiment("fig4", "Figure 4 — scheduling decisions", fig4_decisions.run, fig4_decisions.format_result),
    Experiment("tab2", "Table II — benchmark profiles", tab2_profiles.run, tab2_profiles.format_result),
    Experiment("tab3", "Table III — Gaussian detail", tab3_gaussian.run, tab3_gaussian.format_result),
    Experiment("tab4", "Table IV — BS-RG pair", tab4_bsrg.run, tab4_bsrg.format_result),
    Experiment("tab5", "Table V — Slate operations & costs", tab5_operations.run, tab5_operations.format_result),
    Experiment("fig5", "Figure 5 — task size sweep", fig5_tasksize.run, fig5_tasksize.format_result),
    Experiment("fig6", "Figure 6 — solo app time & overheads", fig6_overhead.run, fig6_overhead.format_result),
    Experiment("fig7", "Figure 7 — 15 pairings", fig7_pairings.run, fig7_pairings.format_result),
    # Extensions beyond the paper's tables:
    Experiment(
        "abl-policy",
        "Ablation — selection policy",
        ablations.run_policy_ablation,
        ablations.format_policy_ablation,
    ),
    Experiment(
        "abl-partition",
        "Ablation — partition strategy",
        ablations.run_partition_ablation,
        ablations.format_partition_ablation,
    ),
    Experiment(
        "abl-locality",
        "Ablation — in-order execution",
        ablations.run_locality_ablation,
        ablations.format_locality_ablation,
    ),
    Experiment(
        "abl-tasksize",
        "Ablation — task-size auto-tuning",
        ablations.run_task_size_ablation,
        ablations.format_task_size_ablation,
    ),
    Experiment(
        "abl-resizing",
        "Ablation — dynamic resizing",
        ablations.run_resizing_ablation,
        ablations.format_resizing_ablation,
    ),
    Experiment(
        "validate",
        "Validation — fluid vs per-block executor",
        validation.run,
        validation.format_result,
    ),
    Experiment(
        "sweep",
        "Sweep — partition sensitivity (BS-RG)",
        sweep.run,
        sweep.format_result,
    ),
    Experiment(
        "scaling",
        "Scaling — compute growth at fixed DRAM",
        scaling.run,
        scaling.format_result,
    ),
    Experiment(
        "cluster",
        "Cluster — 2-GPU class-aware placement",
        cluster_study.run,
        cluster_study.format_result,
    ),
    Experiment(
        "gen",
        "Generalization — Titan Xp vs Tesla V100",
        generalization.run,
        generalization.format_result,
    ),
    Experiment(
        "shootout",
        "Shoot-out — scheduling policies on one trace",
        policy_shootout.run,
        policy_shootout.format_result,
    ),
    Experiment(
        "retreat",
        "Retreat vs slice — resize stall & VIP latency",
        retreat_vs_slice.run,
        retreat_vs_slice.format_result,
    ),
)


_BY_KEY: dict[str, Experiment] = {e.key: e for e in EXPERIMENTS}


@dataclass(frozen=True)
class ExperimentRun:
    """One completed experiment: its result plus wall-clock timing.

    ``stats`` is populated only when profiling: a snapshot of the
    process-wide :func:`repro.sim.aggregate_stats` counters accumulated
    while this experiment ran (each profiled run resets the aggregate
    first, so snapshots do not bleed into each other — including across
    pool workers, whose aggregates are per-process).  The battery driver
    folds every snapshot back into *its* process aggregate, so
    ``aggregate_stats()`` after a profiled battery reports the whole
    battery identically for serial and ``--jobs N`` runs.
    """

    key: str
    title: str
    result: Any
    elapsed: float
    stats: dict[str, int] | None = None

    @property
    def formatted(self) -> str:
        return _BY_KEY[self.key].format(self.result)


class UnknownExperimentError(ValueError):
    """Raised when a requested experiment key is not in the registry."""

    def __init__(self, unknown: Sequence[str]) -> None:
        self.unknown = tuple(unknown)
        valid = ", ".join(experiment_keys())
        noun = "key" if len(self.unknown) == 1 else "keys"
        super().__init__(
            f"unknown experiment {noun} {', '.join(map(repr, self.unknown))}; "
            f"valid keys: {valid}"
        )


def experiment_keys() -> tuple[str, ...]:
    """All registered experiment keys, in battery order."""
    return tuple(e.key for e in EXPERIMENTS)


def select_keys(keys: Iterable[str] | None) -> list[str]:
    """Validate ``keys`` and return them in battery order (None = all).

    Raises :class:`UnknownExperimentError` on any unregistered key instead
    of silently running nothing.
    """
    if keys is None:
        return list(experiment_keys())
    requested = list(keys)
    unknown = sorted({k for k in requested if k not in _BY_KEY})
    if unknown:
        raise UnknownExperimentError(unknown)
    wanted = set(requested)
    return [e.key for e in EXPERIMENTS if e.key in wanted]


def _run_one(key: str) -> tuple[str, Any, float, None]:
    """Execute one experiment by key (top-level, so pool workers can pickle it)."""
    experiment = _BY_KEY[key]
    start = time.perf_counter()
    result = experiment.run()
    return key, result, time.perf_counter() - start, None


def _run_one_profiled(key: str) -> tuple[str, Any, float, dict[str, int]]:
    """Like :func:`_run_one`, also capturing engine counters for the run.

    The process-wide aggregate is reset before the experiment so the
    snapshot afterwards is exactly this experiment's engine work.  The
    rate-derivation memo and occupancy caches are also cleared, so each
    experiment's hit rates start cold and serial/parallel runs report
    identical counters.  Valid under ``--jobs``: pool workers each own a
    per-process aggregate and run one experiment at a time.
    """
    from repro.gpu.occupancy import occupancy_cache_info, reset_occupancy_cache
    from repro.gpu.rates import reset_rates_cache
    from repro.sim import aggregate_stats, reset_aggregate_stats

    outer = aggregate_stats().snapshot()
    reset_aggregate_stats()
    reset_rates_cache()
    reset_occupancy_cache()
    key, result, elapsed, _ = _run_one(key)
    stats = aggregate_stats().snapshot()
    occ = occupancy_cache_info()
    stats["occupancy_cache_hits"] = occ["hits"]
    stats["occupancy_cache_misses"] = occ["misses"]
    # Restore whatever the surrounding process had accumulated before this
    # run (the reset above isolates the measurement, it must not erase
    # history); the battery driver then folds `stats` in exactly once —
    # whether this executed inline or in a pool worker.
    reset_aggregate_stats()
    _fold_into_aggregate(outer)
    return key, result, elapsed, stats


def _worker_init() -> None:
    """Pool-worker initializer: start from a clean stats slate.

    Forked workers inherit the parent's process-wide accumulator by
    copy; without this reset a worker's first profiled snapshot would
    double-count whatever the parent had already accumulated.
    """
    from repro.gpu.occupancy import reset_occupancy_cache
    from repro.gpu.rates import reset_rates_cache
    from repro.sim import reset_aggregate_stats

    reset_aggregate_stats()
    reset_rates_cache()
    reset_occupancy_cache()


def _fold_into_aggregate(stats: dict[str, int]) -> None:
    """Fold one profiled run's snapshot into this process's aggregate."""
    from repro.sim import aggregate_stats

    agg = aggregate_stats()
    agg.accumulate({field: 0 for field in type(agg)._FIELDS}, stats)


def iter_battery(
    keys: Iterable[str] | None = None, jobs: int = 1, profile: bool = False
) -> Iterator[ExperimentRun]:
    """Yield :class:`ExperimentRun`\\ s in deterministic battery order.

    ``jobs > 1`` shards experiments across worker processes; results are
    still yielded in table order (a straggling early experiment delays
    later, already-finished ones, never reorders them).  ``profile``
    attaches per-experiment engine counters to each run.
    """
    selected = select_keys(keys)
    run_one = _run_one_profiled if profile else _run_one
    if jobs <= 1 or len(selected) <= 1:
        rows: Iterable[tuple[str, Any, float, Any]] = map(run_one, selected)
        for key, result, elapsed, stats in rows:
            if stats is not None:
                _fold_into_aggregate(stats)
            yield ExperimentRun(key, _BY_KEY[key].title, result, elapsed, stats)
        return
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(selected)), initializer=_worker_init
    ) as pool:
        for key, result, elapsed, stats in pool.map(run_one, selected):
            if stats is not None:
                _fold_into_aggregate(stats)
            yield ExperimentRun(key, _BY_KEY[key].title, result, elapsed, stats)


def run_battery(
    keys: Iterable[str] | None = None, jobs: int = 1, profile: bool = False
) -> list[ExperimentRun]:
    """Execute experiments (all by default) with timing; battery order."""
    return list(iter_battery(keys, jobs=jobs, profile=profile))


def _hit_rate(hits: int, misses: int) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:.0f}%" if total else "-"


def _per(numerator: int, denominator: int) -> str:
    return f"{numerator / denominator:.1f}" if denominator else "-"


def _us_per_event(wall_s: float, events: int) -> str:
    return f"{wall_s * 1e6 / events:.1f}" if events else "-"


def format_profile_table(runs: Sequence[ExperimentRun]) -> str:
    """Tabulate per-experiment engine counters (the ``--profile`` output).

    ``rmemo``/``rm%`` are the :func:`repro.gpu.rates.derive_rates` memo
    hits and hit rate; ``occ%`` the occupancy-cache hit rate.  The epoch
    columns measure decision-epoch batching: ``epochs`` is end-of-timestep
    flushes performed, ``mut/ep`` the mean device mutations absorbed per
    flush.  ``scal`` counts full rate derivations.
    ``slices``/``slcpre`` count sub-grid slice dispatches and
    slice-boundary preemptions (zero unless the experiment runs the
    scheduler with slicing enabled).  ``µs/ev`` is wall microseconds per
    processed event: a change that only speeds the simulator up must lower
    it while ``events`` stays put.
    """
    header = (
        f"{'experiment':<14}{'events':>12}{'heap pk':>9}{'t/o reused':>12}"
        f"{'recomp':>8}{'skip':>7}{'wfill':>7}{'hits':>7}"
        f"{'rmemo':>8}{'rm%':>6}{'occ%':>6}"
        f"{'epochs':>9}{'mut/ep':>8}{'scal':>7}"
        f"{'slices':>8}{'slcpre':>8}"
        f"{'wall s':>9}{'µs/ev':>8}"
    )
    lines = [header, "-" * len(header)]
    totals = {
        "events": 0, "reused": 0, "recomp": 0, "skip": 0, "wfill": 0,
        "hits": 0, "rhits": 0, "rmiss": 0, "ohits": 0, "omiss": 0,
        "marks": 0, "flushes": 0, "scal": 0, "slices": 0, "slcpre": 0,
    }
    wall = 0.0
    for run in runs:
        s = run.stats or {}
        rhits = s.get("rate_memo_hits", 0)
        rmiss = s.get("rate_memo_misses", 0)
        ohits = s.get("occupancy_cache_hits", 0)
        omiss = s.get("occupancy_cache_misses", 0)
        marks = s.get("epoch_marks", 0)
        flushes = s.get("epoch_flushes", 0)
        scal = s.get("rate_scalar_evals", 0)
        slices = s.get("slice_dispatches", 0)
        slcpre = s.get("slice_preempts", 0)
        lines.append(
            f"{run.key:<14}{s.get('events_processed', 0):>12,}"
            f"{s.get('heap_peak', 0):>9,}"
            f"{s.get('timeouts_reused', 0):>12,}"
            f"{s.get('rate_recomputes', 0):>8,}"
            f"{s.get('rate_recomputes_skipped', 0):>7,}"
            f"{s.get('waterfill_calls', 0):>7,}"
            f"{s.get('waterfill_cache_hits', 0):>7,}"
            f"{rhits:>8,}"
            f"{_hit_rate(rhits, rmiss):>6}"
            f"{_hit_rate(ohits, omiss):>6}"
            f"{flushes:>9,}"
            f"{_per(marks, flushes):>8}"
            f"{scal:>7,}"
            f"{slices:>8,}"
            f"{slcpre:>8,}"
            f"{run.elapsed:>9.2f}"
            f"{_us_per_event(run.elapsed, s.get('events_processed', 0)):>8}"
        )
        totals["events"] += s.get("events_processed", 0)
        totals["reused"] += s.get("timeouts_reused", 0)
        totals["recomp"] += s.get("rate_recomputes", 0)
        totals["skip"] += s.get("rate_recomputes_skipped", 0)
        totals["wfill"] += s.get("waterfill_calls", 0)
        totals["hits"] += s.get("waterfill_cache_hits", 0)
        totals["rhits"] += rhits
        totals["rmiss"] += rmiss
        totals["ohits"] += ohits
        totals["omiss"] += omiss
        totals["marks"] += marks
        totals["flushes"] += flushes
        totals["scal"] += scal
        totals["slices"] += slices
        totals["slcpre"] += slcpre
        wall += run.elapsed
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<14}{totals['events']:>12,}{'':>9}{totals['reused']:>12,}"
        f"{totals['recomp']:>8,}{totals['skip']:>7,}{totals['wfill']:>7,}"
        f"{totals['hits']:>7,}{totals['rhits']:>8,}"
        f"{_hit_rate(totals['rhits'], totals['rmiss']):>6}"
        f"{_hit_rate(totals['ohits'], totals['omiss']):>6}"
        f"{totals['flushes']:>9,}"
        f"{_per(totals['marks'], totals['flushes']):>8}"
        f"{totals['scal']:>7,}"
        f"{totals['slices']:>8,}{totals['slcpre']:>8,}"
        f"{wall:>9.2f}"
        f"{_us_per_event(wall, totals['events']):>8}"
    )
    return "\n".join(lines)


def run_all(keys: list[str] | None = None, jobs: int = 1) -> dict[str, Any]:
    """Execute experiments (all by default); returns results by key."""
    return {run.key: run.result for run in iter_battery(keys, jobs=jobs)}


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "keys",
        nargs="*",
        help=f"experiments to run (default: all of {list(experiment_keys())})",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes to shard experiments across (default: 1)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-experiment engine counters (events processed, rate "
            "recomputes, wall-clock); experiments served from the on-disk "
            "result cache show little engine work — set REPRO_NO_CACHE=1 "
            "to force fresh simulations"
        ),
    )
    args = parser.parse_args(argv)
    keys = args.keys or None
    try:
        select_keys(keys)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    battery_start = time.perf_counter()
    runs: list[ExperimentRun] = []
    for run in iter_battery(keys, jobs=args.jobs, profile=args.profile):
        runs.append(run)
        print(f"\n{'#' * 72}\n# {run.title}  [{run.elapsed:.2f}s]\n{'#' * 72}")
        print(run.formatted)
    total = time.perf_counter() - battery_start
    if args.profile:
        print(f"\nEngine profile (per experiment):\n{format_profile_table(runs)}")
    print(
        f"\n{len(runs)} experiment{'s' if len(runs) != 1 else ''} "
        f"in {total:.2f}s wall clock (jobs={max(1, args.jobs)})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
