"""Parent-versus-change comparison over alternating pairs of runs.

    python -m benchmarks.e2e compare PARENT CHANGE [--pairs 10] [--seconds S]
                                     [--workloads W ...] [--seed N]

PARENT and CHANGE are either two checkouts (directories), which are then
run in ``--pairs`` alternating pairs (the parent first in even pairs, the
change first in odd ones; pair ``i`` uses seed ``N + i`` on both sides),
or two result files written by ``python -m benchmarks.e2e run --out``,
paired run by run.

For every (workload, end-to-end metric) it reports each side's median and
quartiles, the share of pairs the change won (ties count for neither) and
one verdict, using the metric's bound from ``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the parent's by more than
  the bound (when the parent's own spread exceeds the bound, only if every
  change run is worse than every parent run);
* ``improved`` — the change won at least 90% of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` — the parent's spread exceeds the bound, so "no change"
  cannot be told from noise (unless every change run beats every parent
  run);
* ``unchanged`` — otherwise.

More failed operations on the change side, or any incorrect run, counts as
a regression.  Exits 1 on any regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.measure import declared_metrics
from benchmarks.e2e.workloads import WORKLOADS

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric from paired runs (``parent[i]`` vs ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound and (spread <= bound or all_worse):
        verdict = "worse"
    elif wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1:
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": [p1, pm, p3],
        "change": [c1, cm, c3],
        "delta": (cm - pm) / abs(pm) if pm else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def compare_runs(parent: dict, change: dict) -> tuple[list[dict], bool]:
    """Rows for every (workload, metric) plus failures; ``regressed`` flag.

    ``parent``/``change`` map a workload to its list of result objects,
    in pair order.
    """
    specs = declared_metrics()["end_to_end"]
    rows, regressed = [], False
    for workload in parent:
        p_runs, c_runs = parent[workload], change[workload]
        if len(p_runs) != len(c_runs):
            raise ValueError(f"{workload}: {len(p_runs)} parent runs vs {len(c_runs)} change runs")
        for name, spec in specs.items():
            row = classify(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                spec["better"],
                spec["bound"],
            )
            rows.append({"workload": workload, "metric": name, **row})
            regressed |= row["verdict"] == "worse"
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        incorrect = sum(not r["correct"] for r in c_runs)
        rows.append(
            {
                "workload": workload,
                "metric": "failed",
                "parent": p_failed,
                "change": c_failed,
                "incorrect_change_runs": incorrect,
                "verdict": "worse" if c_failed > p_failed or incorrect else "unchanged",
            }
        )
        regressed |= rows[-1]["verdict"] == "worse"
    return rows, regressed


def _run_checkout(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: {workload} seed {seed} gave no result:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, workloads, pairs: int, seconds: float, seed: int):
    """Alternating pairs on two checkouts: ``({workload: runs}, {workload: runs})``."""
    sides = {parent: {w: [] for w in workloads}, change: {w: [] for w in workloads}}
    for i in range(pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for workload in workloads:
            for root in order:
                sides[root][workload].append(_run_checkout(root, workload, seed + i, seconds))
            print(f"pair {i + 1}/{pairs} {workload} done", file=sys.stderr)
    return sides[parent], sides[change]


def load_result_set(path: Path) -> dict:
    """``{workload: {seed: result}}`` of the untraced runs in a suite file."""
    runs: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], {})[run["seed"]] = run["result"]
    return runs


def pair_result_sets(parent: dict, change: dict) -> tuple[dict, dict]:
    """Pair two loaded result sets by (workload, seed)."""
    paired_parent, paired_change = {}, {}
    for workload, runs in parent.items():
        seeds = sorted(runs)
        if seeds != sorted(change.get(workload, {})):
            raise ValueError(f"{workload}: the two result sets ran different seeds")
        paired_parent[workload] = [runs[s] for s in seeds]
        paired_change[workload] = [change[workload][s] for s in seeds]
    return paired_parent, paired_change


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18}{'metric':<14}{'parent median [q1, q3]':>34}"
        f"{'change median [q1, q3]':>34}{'delta':>9}{'wins':>7}  verdict"
    ]
    for row in rows:
        if row["metric"] == "failed":
            lines.append(
                f"{row['workload']:<18}{'failed':<14}{row['parent']:>34}{row['change']:>34}"
                f"{'':>16}  {row['verdict']}"
                + (f" ({row['incorrect_change_runs']} incorrect runs)" if row["incorrect_change_runs"] else "")
            )
            continue
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        lines.append(
            f"{row['workload']:<18}{row['metric']:<14}"
            f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>34}{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>34}"
            f"{row['delta']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="parent checkout, or its result file")
    parser.add_argument("change", type=Path, help="changed checkout, or its result file")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    if args.parent.is_dir() != args.change.is_dir():
        parser.error("give two checkouts or two result files")
    if args.parent.is_dir():
        if args.pairs < 10:
            print("note: fewer than 10 pairs cannot support a gain claim", file=sys.stderr)
        parent, change = run_pairs(
            args.parent.resolve(), args.change.resolve(), args.workloads,
            args.pairs, args.seconds, args.seed,
        )
    else:
        parent, change = pair_result_sets(
            *(
                {w: runs for w, runs in load_result_set(path).items() if w in args.workloads}
                for path in (args.parent, args.change)
            )
        )
    rows, regressed = compare_runs(parent, change)
    print(format_rows(rows))
    return 1 if regressed else 0
