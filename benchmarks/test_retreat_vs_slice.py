"""Benchmark: repartition stall and VIP latency, retreat vs slice edges.

Regenerates ``results/retreat_vs_slice.txt``.  The experiment's claims
(stall cut, makespan tax, VIP p99 win) are asserted in tier-1
(``tests/experiments/test_extension_experiments.py``).
"""

from __future__ import annotations

from repro.experiments import retreat_vs_slice


def test_retreat_vs_slice(benchmark, save_result):
    result = benchmark.pedantic(retreat_vs_slice.run, rounds=1, iterations=1)
    save_result("retreat_vs_slice", retreat_vs_slice.format_result(result))
