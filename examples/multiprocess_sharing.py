#!/usr/bin/env python
"""Run a 4-process mixed workload and compare the three schedulers.

Goes beyond the paper's pairings: four applications (two memory-heavy, two
light) contend for one GPU.  Slate's scheduler co-runs complementary
subsets as they arrive and resizes on every completion; CUDA time-slices;
MPS funnels contexts but only overlaps drain tails.

Run:  python examples/multiprocess_sharing.py
"""

from repro.metrics import antt, format_table, stp
from repro.workloads import app_for, run_many, run_solo

WORKLOAD = [
    ("pricing", "BS", 0.0),     # (app name, benchmark, arrival time s)
    ("montecarlo", "RG", 0.002),
    ("solver", "GS", 0.004),
    ("sequences", "RG", 0.006),
]


def run_mix(runtime_name: str) -> dict[str, float]:
    apps = [app_for(bench, name=name, reps=10) for name, bench, _ in WORKLOAD]
    results, _ = run_many(runtime_name, apps, arrivals=[at for _, _, at in WORKLOAD])
    return {name: result.app_time for name, result in results.items()}


def main() -> None:
    solo = {}
    for name, bench, _ in WORKLOAD:
        result, _ = run_solo("CUDA", app_for(bench, name=name, reps=10))
        solo[name] = result.app_time

    rows = []
    for runtime in ("CUDA", "MPS", "Slate"):
        times = run_mix(runtime)
        rows.append(
            (
                runtime,
                *(f"{times[n] * 1e3:.1f}" for n in times),
                f"{antt(times, solo):.3f}",
                f"{stp(times, solo):.2f}",
            )
        )
    headers = ["runtime", *(f"{n} (ms)" for n, _, _ in WORKLOAD), "ANTT", "STP"]
    print(format_table(headers, rows, title="4-process mixed workload"))
    print("\nANTT: average slowdown vs running alone (lower is better).")
    print("STP:  aggregate throughput in 'full-speed app' units (higher is better, max 4).")


if __name__ == "__main__":
    main()
