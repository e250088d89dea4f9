"""The serving daemon with per-layer spans.

    python -m benchmarks.e2e.traced_daemon SUMMARY serve --socket PATH ...

Wraps the daemon's request path (wire framing, request validation,
placement) and every simulation layer, runs the normal ``repro serve``
main with the remaining arguments, and when the daemon exits writes the
per-layer calls and self times, the engine counters and the kept spans to
SUMMARY as JSON.  Stop it with SIGTERM like the plain daemon.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    summary_path, serve_argv = argv[0], argv[1:]

    import repro.serve.server  # noqa: F401  (binds every lookup site first)
    from repro.__main__ import main as repro_main
    from repro.obs.registry import registry
    from repro.serve.router import InLoopShard

    from benchmarks.e2e.layers import ENGINE_SITES, SERVER_SITES, Tracer
    from benchmarks.e2e.workloads import counter_delta, engine_counters, traced

    # Shard environments are only ever stepped, so their counters never
    # reach the process-wide aggregate: remember them as shards start.
    envs = []
    start = InLoopShard.start

    def remembering_start(shard):
        envs.append(shard.env)
        return start(shard)

    tracer = Tracer()
    before = engine_counters()
    InLoopShard.start = remembering_start
    try:
        cpu0 = time.process_time()
        with traced(tracer, ENGINE_SITES + SERVER_SITES):
            code = repro_main(serve_argv)
        cpu = time.process_time() - cpu0
    finally:
        InLoopShard.start = start
    counters = counter_delta(before, engine_counters(envs))
    counters["serve.launches"] = registry().counter("serve.launches").value
    summary = tracer.summary()
    summary["cpu_ns"] = int(cpu * 1e9)
    with open(summary_path, "w") as fh:
        json.dump(
            {"layers": summary, "counters": counters, "spans": tracer.spans}, fh
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
