#!/usr/bin/env python
"""Workload-aware placement across a 2-GPU node (extension).

Four tenants — two memory-saturating (BS, GS) and two light (RG) — arrive
at a node with two Titan Xps in the order BS, RG, GS, RG. Class-aware
placement sends the second memory hog to the other device and pairs each
hog with a light partner, so *both* devices co-run complementary kernels.
Compare against round-robin and least-loaded placement, which put the two
memory-saturating tenants on the SAME device.

The placements and devices are the serving daemon's (see
``repro.experiments.cluster_study``); this script prints their outcomes.

Run:  python examples/multi_gpu_cluster.py
"""

from repro.experiments import cluster_study
from repro.metrics import format_table


def main() -> None:
    rows = [
        (
            o.placement,
            o.makespan * 1e3,
            o.total_coruns,
            " + ".join(o.groups[0]),
            " + ".join(o.groups[1]),
        )
        for o in cluster_study.run().outcomes
    ]
    print(
        format_table(
            ["placement", "makespan (ms)", "coruns", "GPU 0 tenants", "GPU 1 tenants"],
            rows,
            title="4 tenants on a 2-GPU node",
        )
    )
    print("\nClass-aware placement separates the two memory-saturating tenants")
    print("and pairs each with a light quasirandom generator, so both devices")
    print("spend the whole run co-executing complementary kernels.")


if __name__ == "__main__":
    main()
