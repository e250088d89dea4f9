"""Run one workload and compute its metrics.

An untraced run spawns ``reps`` fresh worker processes one after another
(each with an empty cache directory), checks their outputs and reports
every end-to-end metric as the median over reps.  A traced run spawns one
untraced and one traced worker with the same inputs and work, each half
the run long, and reports every per-layer metric: self times and counts
from the traced rep, latencies and simulated results from the untraced
one, and the ratio of the two walls as the tracing overhead.

A rep runs on one CPU; a serve rep's daemon runs on another (see
``worker.py``).  Set-up and throughput are in reference-host seconds: wall
time scaled by the host probes the reps take (see ``HostTimer`` in
``workloads.py``), which cancels most of a shared host's drift.  The raw
wall times stay in the run's detail.

Workload and metric names come from ``BENCHMARK.json``; a set here that
differs from the declared one is an error, so the two cannot drift apart.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e.workloads import PROBE_REF_S, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout; the latest Chrome trace of each
#: workload is kept here as ``trace-<workload>.json``.
WORK = ROOT / ".e2e_work"
#: Relative tolerance for the per-layer self times adding up to the wall.
RECONCILE_TOLERANCE = 0.02


class RepFailed(RuntimeError):
    """A worker process failed: the run has no result to report."""


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    spec = _declared()
    return {
        kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def _check_declared(kind: str, names, declared) -> None:
    if set(names) != set(declared):
        raise RuntimeError(
            f"{kind} differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(names))}, "
            f"undeclared {sorted(set(names) - set(declared))}"
        )


def _spawn_rep(
    run_dir: Path, index: int, name: str, seed: int, seconds: float, per_layer: bool, trace: bool
) -> dict:
    rep_dir = run_dir / f"rep{index}"
    rep_dir.mkdir()
    # The program sees only the generated inputs: none of the caller's
    # REPRO_* switches, and a cache directory of its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(rep_dir / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.worker", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--out", "rep.json",
    ] + (["--per-layer"] if per_layer else []) + (["--trace"] if trace else [])
    spawned = time.monotonic()
    with open(rep_dir / "worker.log", "w") as log:
        # Its own session, so a timeout also kills the daemon a serve rep starts.
        proc = subprocess.Popen(
            cmd, cwd=rep_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=60 + 10 * seconds)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    if code != 0:
        tail = (rep_dir / "worker.log").read_text()[-3000:]
        raise RepFailed(f"{name} rep {index} (seed {seed}) failed ({code}):\n{tail}")
    record = json.loads((rep_dir / "rep.json").read_text())
    if "setup_s" not in record:
        # Both stamps are CLOCK_MONOTONIC, which every process shares.
        record["setup_s"] = record["ready_at"] - spawned
    if trace:
        shutil.move(rep_dir / "trace.json", WORK / f"trace-{name}.json")
    return record


def _golden_checks(outputs: dict) -> dict:
    """Byte-for-byte diff of every experiment against its golden table."""
    from tests.experiments.test_golden import GOLDEN_FILES

    checks = {}
    for key, text in outputs.items():
        stem = GOLDEN_FILES[key]
        golden = (ROOT / "benchmarks" / "results" / f"{stem}.txt").read_text()
        checks[f"experiment {key} matches benchmarks/results/{stem}.txt"] = (
            text + "\n" == golden
        )
    return checks


def _rep_checks(wl, rep: dict) -> dict:
    checks = dict(rep["checks"])
    if wl.kind == "battery":
        checks.update(_golden_checks(rep["outputs"]))
    return checks


def end_to_end(wl, reps: list[dict]) -> tuple[dict, dict]:
    checks: dict = {}
    for rep in reps:
        for check, ok in _rep_checks(wl, rep).items():
            checks[check] = checks.get(check, True) and ok
    if wl.kind == "trace":
        checks["simulated results identical in every rep"] = all(
            rep["sim"] == reps[0]["sim"] for rep in reps
        )
    metrics = {
        "setup_s": statistics.median(
            r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in reps
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "ops_per_s": statistics.median(r["ops"] / r["ref_wall_s"] for r in reps),
    }
    return metrics, checks


def _reconciles(summary: dict) -> bool:
    total = sum(summary["self_ns"].values())
    roots = summary["roots_ns"]
    return summary["open"] == 0 and abs(total - roots) <= RECONCILE_TOLERANCE * roots


def per_layer(wl, plain: dict, traced: dict) -> tuple[dict, dict]:
    checks = {**_rep_checks(wl, plain), **_rep_checks(wl, traced)}
    for role, summary in traced["layers"].items():
        checks[f"{role} layer self times add up to its traced wall"] = _reconciles(summary)
    serve = wl.kind == "serve"
    role = "daemon" if serve else "worker"
    layers, counters = traced["layers"][role], traced["counters"][role]
    calls, self_ns = layers["calls"], layers["self_ns"]
    # Per-op normalizer: launches (trace), launches served (serve, daemon
    # side), experiments (battery).
    ops = counters["serve.launches"] if serve else traced["attempted"]

    def self_s(*names):
        """Self time in reference-host seconds, like the end-to-end metrics."""
        return _ref_s(traced, sum(self_ns.get(n, 0) for n in names) / 1e9)

    def us_per_op(*names):
        return self_s(*names) / ops * 1e6

    def count(name):
        return calls.get(name, 0)

    solo, corun = counters["scheduler.solo_launches"], counters["scheduler.corun_launches"]
    hits, misses = counters["rate_memo_hits"], counters["rate_memo_misses"]
    m = {
        "sim.events": counters["events_processed"],
        "sim.self_us_per_op": us_per_op("sim"),
        "scheduler.submit.calls": count("scheduler.submit"),
        "scheduler.submit.self_us_per_op": us_per_op("scheduler.submit"),
        "scheduler.decisions": counters["scheduler.decisions"],
        "scheduler.corun_share": corun / (solo + corun) if solo + corun else 0.0,
        "scheduler.resizes": counters["scheduler.resizes"],
        "scheduler.preemptions": counters["scheduler.preemptions"],
        "policy.calls": count("policy"),
        "policy.self_us_per_op": us_per_op("policy"),
        "device.launch.calls": count("device.launch"),
        "device.launch.self_us_per_op": us_per_op("device.launch"),
        "device.resize.calls": count("device.resize"),
        "device.resize.self_us_per_op": us_per_op("device.resize"),
        "device.pause_resume.calls": count("device.pause_resume"),
        "device.epoch_flushes": counters["epoch_flushes"],
        "rates.derive.calls": count("rates.derive"),
        "rates.derive.self_us_per_op": us_per_op("rates.derive"),
        "rates.memo_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "rates.vector_evals": counters["rate_vector_evals"],
        "rates.scalar_evals": counters["rate_scalar_evals"],
        "slicing.dispatches": counters["slice_dispatches"],
        "slicing.preempts": counters["slice_preempts"],
        "api.calls": count("api"),
        "api.self_us_per_op": us_per_op("api"),
        "profiler.offline_profile.calls": count("profiler.offline_profile"),
        "profiler.offline_profile.self_s": self_s("profiler.offline_profile"),
        "detailed.calls": count("detailed"),
        "detailed.self_s": self_s("detailed"),
        "cache.get.calls": count("cache.get"),
        "cache.put.calls": count("cache.put"),
        "cache.self_s": self_s("cache.get", "cache.put"),
    }
    m["trace.overhead_frac"] = (traced["ref_wall_s"] / traced["ops"]) / (
        plain["ref_wall_s"] / plain["ops"]
    ) - 1

    sim = plain.get("sim", {})
    m["sim.makespan_s"] = sim.get("makespan_s", 0.0)
    m["sim.turnaround_p50_ms"] = sim.get("turnaround_p50_ms", 0.0)
    m["sim.turnaround_p99_ms"] = sim.get("turnaround_p99_ms", 0.0)
    if wl.kind == "trace":
        checks["tracing leaves the simulated results unchanged"] = plain["sim"] == traced["sim"]
        checks["scheduler.submit.calls == launches attempted"] = (
            count("scheduler.submit") == traced["attempted"]
        )
    elif wl.kind == "battery":
        checks["scheduler.submit.calls == submits + rejections"] = count(
            "scheduler.submit"
        ) == counters["scheduler.submits"] + counters["scheduler.rejections"]
    else:
        checks["scheduler.submit.calls == launches served"] = (
            count("scheduler.submit") == counters["serve.launches"]
        )
        client = traced["layers"]["worker"]
        checks["client.send.calls == client.recv.calls"] = (
            client["calls"].get("client.send") == client["calls"].get("client.recv")
        )
    m.update(_serve_metrics(plain, traced) if serve else _SERVE_ABSENT)
    return m, checks


#: Serve-only metrics, reported as 0 for workloads without a served path.
_SERVE_ABSENT = dict.fromkeys(
    (
        "client.send.self_us_per_op", "client.recv.wait_us_per_op",
        "client.cpu_us_per_op", "gen.lag_p99_ms.r1000", "gen.lag_p99_ms.r2000",
        "latency_p50_ms.closed", "latency_p99_ms.closed",
        "latency_p50_ms.r1000", "latency_p99_ms.r1000",
        "latency_p50_ms.r2000", "latency_p99_ms.r2000",
        "server.frame.self_us_per_op", "server.router.pick.calls",
        "server.other_us_per_op", "daemon.cpu_us_per_op",
        "server.launch_p50_ms", "server.launch_p99_ms",
        "server.sim_latency_p99_ms", "server.queue_depth_p99",
        "server.busy_rejections", "wire.p50_ms", "router.shard_imbalance",
    ),
    0.0,
)


def _ref_s(rep: dict, seconds: float) -> float:
    """Host ``seconds`` measured during ``rep``, in reference-host seconds."""
    return seconds * rep["ref_wall_s"] / rep["wall_s"]


def _serve_metrics(plain: dict, traced: dict) -> dict:
    from repro.serve.loadgen import percentile

    client = traced["layers"]["worker"]["self_ns"]
    daemon = traced["layers"]["daemon"]
    served = traced["counters"]["daemon"]["serve.launches"]
    requests = traced["attempted"]
    named = sum(ns for name, ns in daemon["self_ns"].items() if name != "harness")
    phases, server = plain["phases"], plain["server"]
    shard_launches = server["shard_launches"]

    def us_per(ns: float, count: int) -> float:
        return _ref_s(traced, ns / 1e9) / count * 1e6

    m = {
        "client.send.self_us_per_op": us_per(client.get("client.send", 0), requests),
        "client.recv.wait_us_per_op": us_per(client.get("client.recv", 0), requests),
        "client.cpu_us_per_op": _ref_s(plain, plain["client_cpu_us_per_op"]),
        "server.frame.self_us_per_op": us_per(daemon["self_ns"].get("server.frame", 0), served),
        "server.router.pick.calls": daemon["calls"].get("server.router.pick", 0),
        "server.other_us_per_op": us_per(daemon["cpu_ns"] - named, served),
        "daemon.cpu_us_per_op": _ref_s(plain, plain["daemon_cpu_us_per_op"]),
        "server.launch_p50_ms": server["launch_p50_ms"],
        "server.launch_p99_ms": server["launch_p99_ms"],
        "server.sim_latency_p99_ms": server["sim_latency_p99_ms"],
        "server.queue_depth_p99": server["queue_depth_p99"],
        "server.busy_rejections": server["busy_rejections"],
        "wire.p50_ms": plain["rtt_p50_ms"] - server["launch_p50_ms"],
        "router.shard_imbalance": max(shard_launches)
        / statistics.mean(shard_launches),
        "latency_p50_ms.closed": percentile(phases["closed"]["latency_ms"], 50),
        "latency_p99_ms.closed": percentile(phases["closed"]["latency_ms"], 99),
    }
    for rate in ("r1000", "r2000"):
        m[f"latency_p50_ms.{rate}"] = percentile(phases[rate]["latency_ms"], 50)
        m[f"latency_p99_ms.{rate}"] = percentile(phases[rate]["latency_ms"], 99)
        m[f"gen.lag_p99_ms.{rate}"] = percentile(phases[rate]["lag_ms"], 99)
    return m


def _layer_table(traced: dict) -> dict:
    """The Chrome trace's summary: per role, each layer's calls and self ms."""
    table = {}
    for role, summary in traced["layers"].items():
        total = summary["roots_ns"]
        table[role] = {
            "wall_ms": total / 1e6,
            "spans_kept": summary["spans_kept"],
            "spans_dropped": summary["spans_dropped"],
            "layers": {
                name: {
                    "calls": summary["calls"][name],
                    "self_ms": ns / 1e6,
                    "share": ns / total if total else 0.0,
                }
                for name, ns in sorted(
                    summary["self_ns"].items(), key=lambda kv: -kv[1]
                )
            },
        }
    return table


def _rep_detail(rep: dict) -> dict:
    keys = (
        "setup_s", "setup_probe_s", "rss_mb", "ops", "wall_s", "ref_wall_s",
        "attempted", "failed", "errors", "sim", "times",
    )
    return {k: rep[k] for k in keys if k in rep}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: ``(result, detail)``.

    ``result`` is the benchmark's output object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``detail`` keeps per-rep values, every check
    and, for a traced run, the layer table of its Chrome trace.
    """
    _check_declared("workloads", WORKLOADS, [w["name"] for w in _declared()["workloads"]])
    wl = WORKLOADS[name]
    # Reps import from up-to-date bytecode, as users of an installed
    # package do, even where the environment stops Python writing it.
    for tree in ("src", "benchmarks"):
        compileall.compile_dir(ROOT / tree, quiet=2)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            reps = [
                _spawn_rep(run_dir, i, name, seed, seconds / 2, per_layer=True, trace=bool(i))
                for i in range(2)
            ]
            values, checks = per_layer(wl, *reps)
        else:
            count = wl.reps(seconds)
            reps = [
                _spawn_rep(run_dir, i, name, seed, seconds / count, per_layer=False, trace=False)
                for i in range(count)
            ]
            values, checks = end_to_end(wl, reps)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    _check_declared("metrics", values, declared)
    failed = sum(r["failed"] for r in reps)
    # No operation is expected to fail on any workload.
    checks["no operation failed"] = failed == 0
    result = {
        "correct": all(checks.values()),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": declared[metric]["unit"]}
            for metric in declared
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "checks": checks,
        "reps": [_rep_detail(r) for r in reps],
    }
    if trace:
        detail["layers"] = _layer_table(reps[1])
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Run one workload of the end-to-end benchmark; the last "
        "line of stdout is the result object.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for check, ok in detail["checks"].items():
        if not ok:
            print(f"run.py: {args.workload}: check failed: {check}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
