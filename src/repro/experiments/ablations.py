"""Ablation studies for Slate's design choices (DESIGN.md §6 extensions).

Four ablations, each isolating one mechanism the paper credits:

* **policy** — workload-aware selection (Table I) vs. blind always-corun
  (MPS-like spatial sharing without selection) vs. never-corun (software
  scheduling only).  Validates the paper's core claim that *selection*
  matters, not just the ability to share.
* **partition** — the paper's saturation heuristic vs. the model-driven
  predictive split vs. a naive even split, over the corun pairings.
* **locality** — Slate's in-order task execution vs. the same persistent
  workers fed in hardware's scattered order; isolates the Table III gain.
* **resizing** — dynamic grow-on-completion enabled vs. disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceConfig, TITAN_XP
from repro.gpu.cache import ORDER_FACTORS
from repro.gpu.device import DEFAULT_TASK_SIZE, SLATE_INJECT_FRAC, ExecutionMode, run_kernels
from repro.kernels.gaussian import gaussian
from repro.kernels.registry import SHORT_NAMES
from repro.metrics.report import format_table
from repro.slate.classify import IntensityClass as C
from repro.slate.policy import PolicyTable
from repro.workloads.harness import pair_antt, solo_times
from repro.workloads.pairings import all_pairings, pairing_label

__all__ = [
    "ALWAYS_CORUN",
    "TaskSizeAblation",
    "run_task_size_ablation",
    "format_task_size_ablation",
    "NEVER_CORUN",
    "PolicyAblation",
    "PartitionAblation",
    "LocalityAblation",
    "ResizingAblation",
    "run_policy_ablation",
    "run_partition_ablation",
    "run_locality_ablation",
    "run_resizing_ablation",
]

ALWAYS_CORUN = PolicyTable(table={(a, b): "corun" for a in C for b in C})
NEVER_CORUN = PolicyTable(table={(a, b): "solo" for a in C for b in C})


# ---------------------------------------------------------------- policy --


@dataclass(frozen=True)
class PolicyAblation:
    #: pairing label -> {variant: ANTT}.
    rows: dict[str, dict[str, float]]

    def average(self, variant: str) -> float:
        return sum(r[variant] for r in self.rows.values()) / len(self.rows)


def run_policy_ablation(device: DeviceConfig = TITAN_XP) -> PolicyAblation:
    """All 15 pairings under Table I vs always-corun vs never-corun."""
    solo = solo_times(SHORT_NAMES, device)
    variants = {
        "table1": {},
        "always": {"policy": ALWAYS_CORUN},
        "never": {"policy": NEVER_CORUN},
    }
    rows: dict[str, dict[str, float]] = {}
    for pair in all_pairings():
        label = pairing_label(pair)
        rows[label] = {
            name: pair_antt("Slate", *pair, solo, device, **kwargs)
            for name, kwargs in variants.items()
        }
    return PolicyAblation(rows=rows)


def format_policy_ablation(result: PolicyAblation) -> str:
    rows = [
        (label, v["table1"], v["always"], v["never"])
        for label, v in result.rows.items()
    ]
    table = format_table(
        ["pair", "Table I", "always corun", "never corun"],
        rows,
        title="Ablation: selection policy (ANTT, lower=better)",
    )
    return (
        f"{table}\n"
        f"averages: Table I {result.average('table1'):.3f}, "
        f"always {result.average('always'):.3f}, "
        f"never {result.average('never'):.3f} "
        "- workload-aware selection beats both blind sharing and no sharing"
    )


# ------------------------------------------------------------- partition --


@dataclass(frozen=True)
class PartitionAblation:
    rows: dict[str, dict[str, float]]

    def average(self, variant: str) -> float:
        return sum(r[variant] for r in self.rows.values()) / len(self.rows)


#: The pairings the Table I policy actually co-runs.
CORUN_PAIRS = [("BS", "RG"), ("GS", "RG"), ("MM", "RG"), ("RG", "TR"), ("RG", "RG")]


def run_partition_ablation(device: DeviceConfig = TITAN_XP) -> PartitionAblation:
    """Corun pairings under heuristic / predictive / even partitioning."""
    solo = solo_times(SHORT_NAMES, device)
    rows: dict[str, dict[str, float]] = {}
    for pair in CORUN_PAIRS:
        label = pairing_label(pair)
        rows[label] = {
            strategy: pair_antt(
                "Slate", *pair, solo, device, partition_strategy=strategy
            )
            for strategy in ("heuristic", "predictive", "even")
        }
    return PartitionAblation(rows=rows)


def format_partition_ablation(result: PartitionAblation) -> str:
    rows = [
        (label, v["heuristic"], v["predictive"], v["even"])
        for label, v in result.rows.items()
    ]
    table = format_table(
        ["pair", "heuristic", "predictive", "even"],
        rows,
        title="Ablation: SM partition strategy (ANTT, lower=better)",
    )
    return (
        f"{table}\n"
        f"averages: heuristic {result.average('heuristic'):.3f}, "
        f"predictive {result.average('predictive'):.3f}, "
        f"even {result.average('even'):.3f}"
    )


# -------------------------------------------------------------- locality --


@dataclass(frozen=True)
class LocalityAblation:
    in_order_time: float
    scattered_time: float
    in_order_bw: float
    scattered_bw: float

    @property
    def speedup_from_ordering(self) -> float:
        return self.scattered_time / self.in_order_time


def run_locality_ablation(device: DeviceConfig = TITAN_XP) -> LocalityAblation:
    """GS under Slate workers with in-order vs scattered task order."""
    spec = gaussian()
    results = {}
    for label, order in (("in_order", ORDER_FACTORS["slate"]), ("scattered", ORDER_FACTORS["hardware"])):
        (results[label],) = run_kernels(
            [spec.work()],
            device=device,
            mode=ExecutionMode.SLATE,
            task_size=DEFAULT_TASK_SIZE,
            inject_frac=SLATE_INJECT_FRAC,
            order_factor=order,
        )
    return LocalityAblation(
        in_order_time=results["in_order"].elapsed,
        scattered_time=results["scattered"].elapsed,
        in_order_bw=results["in_order"].l2_throughput,
        scattered_bw=results["scattered"].l2_throughput,
    )


def format_locality_ablation(result: LocalityAblation) -> str:
    return (
        "Ablation: in-order task execution (GS, Slate workers)\n"
        f"  scattered order: {result.scattered_time * 1e3:.2f} ms "
        f"({result.scattered_bw / 1e9:.0f} GB/s)\n"
        f"  in-order tasks:  {result.in_order_time * 1e3:.2f} ms "
        f"({result.in_order_bw / 1e9:.0f} GB/s)\n"
        f"  ordering alone contributes a {result.speedup_from_ordering:.2f}x "
        "speedup (the Table III mechanism)"
    )


# -------------------------------------------------------------- resizing --


@dataclass(frozen=True)
class ResizingAblation:
    rows: dict[str, dict[str, float]]

    def average(self, variant: str) -> float:
        return sum(r[variant] for r in self.rows.values()) / len(self.rows)


def run_resizing_ablation(device: DeviceConfig = TITAN_XP) -> ResizingAblation:
    """Corun pairings with dynamic grow enabled vs disabled."""
    solo = solo_times(SHORT_NAMES, device)
    rows: dict[str, dict[str, float]] = {}
    for pair in CORUN_PAIRS:
        label = pairing_label(pair)
        rows[label] = {
            "grow": pair_antt("Slate", *pair, solo, device, enable_grow=True),
            "no_grow": pair_antt("Slate", *pair, solo, device, enable_grow=False),
        }
    return ResizingAblation(rows=rows)


def format_resizing_ablation(result: ResizingAblation) -> str:
    rows = [(label, v["grow"], v["no_grow"]) for label, v in result.rows.items()]
    table = format_table(
        ["pair", "with grow", "without grow"],
        rows,
        title="Ablation: dynamic resizing (grow on completion)",
    )
    return (
        f"{table}\n"
        f"averages: grow {result.average('grow'):.3f}, "
        f"no grow {result.average('no_grow'):.3f}"
    )


# ------------------------------------------------------------ task size --


@dataclass(frozen=True)
class TaskSizeAblation:
    #: benchmark -> {"default": kernel time, "auto": kernel time, "size": tuned}.
    rows: dict[str, dict[str, float]]

    def gain(self, bench: str) -> float:
        row = self.rows[bench]
        return row["default"] / row["auto"] - 1.0

    def average_gain(self) -> float:
        return sum(self.gain(b) for b in self.rows) / len(self.rows)


def run_task_size_ablation(device: DeviceConfig = TITAN_XP) -> TaskSizeAblation:
    """Fixed SLATE_ITERS=10 vs the per-kernel auto-tuner, solo kernels."""
    from repro.kernels.registry import BENCHMARKS
    from repro.slate.tuning import auto_task_size

    rows: dict[str, dict[str, float]] = {}
    for name, factory in BENCHMARKS.items():
        spec = factory()
        choice = auto_task_size(spec, device=device)
        times = {}
        for label, size in (("default", DEFAULT_TASK_SIZE), ("auto", choice.task_size)):
            (counters,) = run_kernels(
                [spec.work()],
                device=device,
                mode=ExecutionMode.SLATE,
                task_size=size,
                inject_frac=SLATE_INJECT_FRAC,
            )
            times[label] = counters.elapsed
        rows[name] = {**times, "size": float(choice.task_size)}
    return TaskSizeAblation(rows=rows)


def format_task_size_ablation(result: TaskSizeAblation) -> str:
    rows = [
        (
            bench,
            int(row["size"]),
            row["default"] * 1e3,
            row["auto"] * 1e3,
            f"{result.gain(bench):+.1%}",
        )
        for bench, row in result.rows.items()
    ]
    table = format_table(
        ["bench", "tuned SLATE_ITERS", "fixed-10 time (ms)", "tuned time (ms)", "gain"],
        rows,
        title="Ablation: task-size auto-tuning vs the paper's fixed 10",
    )
    return f"{table}\naverage gain {result.average_gain():+.1%}"
