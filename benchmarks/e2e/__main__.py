"""Run the end-to-end benchmark as a suite, or compare two commits.

    PYTHONPATH=src:. python -m benchmarks.e2e run [--workloads W ...] [--reps 5]
        [--seed 0] [--seconds 10] [--traced] [--out PATH]
    PYTHONPATH=src:. python -m benchmarks.e2e compare PARENT CHANGE [...]

``run`` interleaves runs across workloads (w1 r1, w2 r1, ..., w1 r2, ...)
so machine drift hits every workload alike; run ``i`` uses seed
``seed + i``.  It prints each end-to-end metric's median, quartiles and
spread (interquartile range over median) per workload, and with
``--traced`` one traced run per workload and its per-layer metrics.
``--out`` writes every run's result and detail as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from benchmarks.e2e import compare
from benchmarks.e2e.measure import declared_metrics, measure
from benchmarks.e2e.workloads import WORKLOADS


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: median, quartiles, spread and run count."""
    values: dict = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    summary: dict = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, median, q3 = compare.quartiles(vals)
            summary.setdefault(workload, {})[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
                "n": len(vals),
            }
    return summary


def format_summary(summary: dict, kind: str) -> str:
    specs = declared_metrics()[kind]
    lines = []
    for workload, metrics in summary.items():
        lines.append(f"{workload}:")
        for name, spec in specs.items():
            s = metrics[name]
            line = f"  {name:<34}{s['median']:>14.6g} {spec['unit']:<7}"
            if s["n"] > 1:
                line += f" [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.1%} n={s['n']}"
            if "bound" in spec:
                line += f"  bound {spec['bound']:.0%}"
            lines.append(line)
    return "\n".join(lines)


def run_suite(args) -> int:
    runs = []
    plan = [(w, args.seed + i, False) for i in range(args.reps) for w in args.workloads]
    if args.traced:
        plan += [(w, args.seed, True) for w in args.workloads]
    for workload, seed, trace in plan:
        start = time.monotonic()
        result, detail = measure(workload, seed, args.seconds, trace)
        detail["elapsed_s"] = time.monotonic() - start
        runs.append({"workload": workload, "seed": seed, "trace": int(trace),
                     "result": result, "detail": detail})
        state = "ok" if result["correct"] else "INCORRECT"
        print(f"{workload} seed {seed}{' traced' if trace else ''}: {state} "
              f"({detail['elapsed_s']:.1f} s)", file=sys.stderr)
    untraced = summarize([r for r in runs if not r["trace"]])
    traced = summarize([r for r in runs if r["trace"]])
    print(format_summary(untraced, "end_to_end"))
    if traced:
        print(format_summary(traced, "per_layer"))
    if args.out:
        report = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "seconds": args.seconds,
            "runs": runs,
            "summary": {"end_to_end": untraced, "per_layer": traced},
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the benchmark suite")
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", type=Path)
    sub.add_parser("compare", help="compare a parent and a change", add_help=False)
    args, rest = parser.parse_known_args(argv)
    if args.command == "compare":
        return compare.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
