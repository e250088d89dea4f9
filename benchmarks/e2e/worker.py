"""One rep of one workload, in this (fresh) process.

    python -m benchmarks.e2e.worker WORKLOAD --seed N --seconds S [--per-layer [--trace]] --out PATH

Writes the rep's record (JSON) to PATH.  ``--per-layer`` marks a rep of a
per-layer run: a serve rep then also runs the open-loop phases, whose
latencies are per-layer metrics.  With ``--trace`` the layer wrappers are
installed and the kept spans are also written as a Chrome trace to
``trace.json`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from benchmarks.e2e.layers import Tracer, chrome_trace
from benchmarks.e2e.workloads import WORKLOADS, peak_rss_mb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--per-layer", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # The rep runs on one CPU; a serve rep's daemon runs on another (the
    # last this process may use), so load and daemon each get a core.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    ready: dict = {}
    tracer = Tracer() if args.trace else None
    record = WORKLOADS[args.workload].run(
        args.seed,
        args.seconds,
        tracer,
        lambda: ready.setdefault("ready_at", time.monotonic()),
        per_layer=args.per_layer,
        daemon_cpu=cpus[-1],
    )
    record.update(ready)
    record.setdefault("rss_mb", peak_rss_mb(os.getpid()))
    if tracer is not None:
        record.setdefault("layers", {})["worker"] = tracer.summary()
        processes = {"worker": tracer.spans}
        if "daemon_spans" in record:
            processes["daemon"] = record.pop("daemon_spans")
        with open("trace.json", "w") as fh:
            json.dump(chrome_trace(processes), fh)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
