"""One rep of a serve workload: a ``repro serve`` daemon and its load.

The daemon runs as its own ``python -m repro serve`` process, pinned to
its own CPU.  Load comes from this process, on another CPU: two threads,
each owning one connection.  The daemon bounds the closed loop, so the
host probes that scale its windows run on the daemon's CPU.  The phases
run back to back, each a share of the rep's seconds:

* ``warmup`` — closed loop, discarded;
* ``closed`` — closed loop (a connection sends its next request when the
  reply lands), timed in windows with a host probe between them: the
  saturation request rate;
* ``r1000`` / ``r2000`` (``open_loop`` reps only) — open loop, Poisson
  arrivals at 1000 and 2000 requests/s in total.  A request's latency is
  timed from when it was due, so a stall also charges the requests queued
  behind it, and the generator's lateness is reported as lag.

The open-loop latencies are per-layer metrics, so an end-to-end rep skips
those phases and spends their time in the closed loop, whose request rate
is its end-to-end metric (see README.md for the spread this saves).

One session-less ``metrics`` scrape and one ``stats`` call follow the last
phase; they never overlap load.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from benchmarks.e2e.layers import CLIENT_SITES
from benchmarks.e2e.workloads import HostTimer, host_probe, peak_rss_mb, traced

__all__ = ["SOCKET", "run_serve"]

#: Relative to the rep directory (the cwd): Unix socket paths are limited
#: to ~108 bytes, which a deep checkout path could exceed.
SOCKET = "d.sock"
DAEMON_SUMMARY = "daemon.json"
CONNECTIONS = 2
#: Shares of a rep's seconds: the warmup and each open rate; the closed
#: loop gets the rest.
WARMUP_SHARE, OPEN_SHARE = 0.1, 0.2
#: The closed loop runs in windows with a host probe between them.
CLOSED_WINDOWS = 8
#: Open-loop phases: name -> total offered requests/s.
OPEN_RATES = {"r1000": 1000.0, "r2000": 2000.0}
BUSY_RETRIES = 8
STARTUP_TIMEOUT = 60.0


@dataclass
class _ConnPhase:
    """What one connection saw during one phase."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    wall: float = 0.0
    latency: list = field(default_factory=list)
    lag: list = field(default_factory=list)
    rtt: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _kernel_stream(seed: int, conn: int, mix):
    rng = random.Random(f"{seed}:{conn}")
    while True:
        yield rng.choice(mix)


def _drive(conn, kernels, gaps, duration, out: _ConnPhase, tracer) -> None:
    """One connection's share of a phase (closed loop when ``gaps`` is None)."""
    with tracer.span("harness") if tracer else contextlib.nullcontext():
        start = due = time.perf_counter()
        while True:
            if gaps is None:
                due = time.perf_counter()
            else:
                due += next(gaps)
            if due - start >= duration:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            kernel = next(kernels)
            out.attempted += 1
            sent = time.perf_counter()
            try:
                reply = conn.launch(kernel, busy_retries=BUSY_RETRIES)
            except Exception as exc:  # counted; one failed request never stops the load
                out.failed += 1
                if len(out.errors) < 5:
                    out.errors.append(f"{kernel}: {type(exc).__name__}: {exc}")
                continue
            done = time.perf_counter()
            if reply.kernel != kernel or reply.sim_finished < reply.sim_submitted:
                out.mismatched += 1
            out.latency.append((done - due) * 1e3)
            out.lag.append((sent - due) * 1e3)
            out.rtt.append((done - sent) * 1e3)
        out.wall = time.perf_counter() - start


def _phase(conns, kernels, seed, name, rate, duration, tracer) -> dict:
    outs = [_ConnPhase() for _ in conns]
    threads = []
    for i, conn in enumerate(conns):
        gaps = None
        if rate is not None:
            rng = random.Random(f"{seed}:{i}:{name}")
            gaps = iter(lambda rng=rng: rng.expovariate(rate / len(conns)), None)
        threads.append(
            threading.Thread(
                target=_drive,
                args=(conn, kernels[i], gaps, duration, outs[i], tracer),
                name=f"load-{i}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration + 120.0)
        if thread.is_alive():
            raise RuntimeError(f"load thread {thread.name} stuck in phase {name}")
    return {
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "mismatched": sum(o.mismatched for o in outs),
        "completed": sum(len(o.latency) for o in outs),
        "wall": max(o.wall for o in outs),
        "latency_ms": [x for o in outs for x in o.latency],
        "lag_ms": [x for o in outs for x in o.lag],
        "rtt_ms": [x for o in outs for x in o.rtt],
        "errors": [e for o in outs for e in o.errors][:5],
    }


def _merge(parts: list[dict]) -> dict:
    """One phase's record from the records of its windows."""
    merged = {
        key: sum(p[key] for p in parts)
        for key in ("attempted", "failed", "mismatched", "completed", "wall")
    }
    for key in ("latency_ms", "lag_ms", "rtt_ms", "errors"):
        merged[key] = [x for p in parts for x in p[key]]
    merged["errors"] = merged["errors"][:5]
    return merged


def _oneshot(op: str, timeout: float = 10.0) -> dict:
    """A session-less request on a fresh connection (ping, stats)."""
    from repro.serve.protocol import MessageStream, error_from_reply, request

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(SOCKET)
        stream = MessageStream(sock)
        stream.send(request(1, op))
        reply = stream.recv()
    if not reply.get("ok"):
        raise error_from_reply(reply)
    return reply.get("result") or {}


def _wait_for_ping(proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while True:
        try:
            _oneshot("ping")
            return
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {proc.returncode} before serving")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer ping in time")
            time.sleep(0.002)


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (Linux /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _server_view(scrape: dict, stats: dict) -> dict:
    from repro.obs.registry import Histogram

    registry = scrape["registry"]
    hist = {
        name: Histogram.from_state(name, state)
        for name, state in registry["histograms"].items()
    }
    launches = [
        block["scheduler"]["solo_launches"] + block["scheduler"]["corun_launches"]
        for block in stats["server"]["shards"]
    ]
    return {
        "launch_p50_ms": hist["serve.latency.launch"].quantile(0.50) * 1e3,
        "launch_p99_ms": hist["serve.latency.launch"].quantile(0.99) * 1e3,
        "sim_latency_p99_ms": hist["serve.sim_latency.launch"].quantile(0.99) * 1e3,
        "queue_depth_p99": hist["serve.queue_depth"].quantile(0.99),
        "busy_rejections": registry["counters"].get("serve.busy_rejections", 0),
        "launches": stats["server"]["launches"],
        "shard_launches": launches,
    }


def _stop(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("daemon ignored SIGTERM; killed")


@contextlib.contextmanager
def _keep_awake(cpus):
    """An idle-priority busy loop on each of ``cpus`` while the block runs.

    A CPU with nothing to run halts, and on a virtual machine waking a
    halted vCPU takes as long as the host's other tenants make it.  Daemon
    and load wake each other for every request, so a closed loop's rate
    would follow the host's wake-up latency, not the served path's cost.
    A ``SCHED_IDLE`` loop keeps each CPU running without taking time from
    the rep: the kernel preempts it the moment anything else is runnable.
    """
    spinners = []
    try:
        for cpu in cpus:
            spinners.append(subprocess.Popen([sys.executable, "-S", "-c", "while True: pass"]))
            os.sched_setscheduler(spinners[-1].pid, os.SCHED_IDLE, os.sched_param(0))
            os.sched_setaffinity(spinners[-1].pid, {cpu})
        yield
    finally:
        for proc in spinners:
            proc.kill()
            proc.wait()


def run_serve(
    wl, seed: int, seconds: float, tracer, open_loop: bool, mix=None, daemon_cpu=None
) -> dict:
    """Start the daemon, drive every phase, scrape, stop; one rep's record.

    ``mix`` is the kernel names requests draw from (default: the paper's
    five benchmarks).  The daemon, and any process it starts, is pinned to
    ``daemon_cpu``; with the default None it is not pinned, and no CPU is
    kept awake.
    """
    from repro.kernels.registry import SHORT_NAMES
    from repro.serve.client import SlateClient
    from repro.serve.loadgen import fetch_server_metrics, percentile

    mix = tuple(mix or SHORT_NAMES)
    open_rates = OPEN_RATES if open_loop else {}
    closed_s = seconds * (1 - WARMUP_SHARE - OPEN_SHARE * len(open_rates))
    argv = ["serve", "--socket", SOCKET, "--shards", str(wl.shards)]
    if tracer is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, "-m", "benchmarks.e2e.traced_daemon", DAEMON_SUMMARY, *argv]
    kernels, hints = [], []
    for i in range(CONNECTIONS):
        stream = _kernel_stream(seed, i, mix)
        first = next(stream)
        kernels.append(itertools.chain([first], stream))
        hints.append(first if wl.hints else None)
    # While the rep runs, its CPUs never halt (see _keep_awake).
    awake = sorted(os.sched_getaffinity(0) | {daemon_cpu}) if daemon_cpu is not None else []
    with _keep_awake(awake):
        spawned = time.monotonic()
        with open("daemon.log", "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            if daemon_cpu is not None:
                os.sched_setaffinity(proc.pid, {daemon_cpu})
            _wait_for_ping(proc)
            setup_s = time.monotonic() - spawned
            setup_probe = host_probe(daemon_cpu)
            with traced(tracer, CLIENT_SITES, policy=False):
                conns = [
                    SlateClient(
                        SOCKET,
                        name=f"conn{i}",
                        kernel_hint=hints[i],
                        backoff_seed=f"{seed}:{i}",
                    )
                    for i in range(CONNECTIONS)
                ]
                for conn in conns:
                    conn.connect()
                cpu0, daemon_cpu0 = time.process_time(), _proc_cpu_s(proc.pid)
                phases = {
                    "warmup": _phase(
                        conns, kernels, seed, "warmup", None, seconds * WARMUP_SHARE, tracer
                    )
                }
                timer = HostTimer(daemon_cpu)
                closed = []
                for _ in range(CLOSED_WINDOWS):
                    with timer.window():
                        closed.append(
                            _phase(
                                conns, kernels, seed, "closed", None,
                                closed_s / CLOSED_WINDOWS, tracer,
                            )
                        )
                phases["closed"] = _merge(closed)
                for name, rate in open_rates.items():
                    phases[name] = _phase(
                        conns, kernels, seed, name, rate, seconds * OPEN_SHARE, tracer
                    )
                cpu = time.process_time() - cpu0
                daemon_cpu_s = _proc_cpu_s(proc.pid) - daemon_cpu0
                for conn in conns:
                    conn.close()
            server = _server_view(fetch_server_metrics(SOCKET, fresh=True), _oneshot("stats"))
            rss_mb = peak_rss_mb(proc.pid)
        finally:
            code = _stop(proc)
    requests = sum(p["attempted"] for p in phases.values())
    record = {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "ops": phases["closed"]["completed"],
        **timer.record(),
        "setup_probe_s": setup_probe,
        "attempted": requests,
        "failed": sum(p["failed"] for p in phases.values()),
        "checks": {
            "replies echo the kernel, sim_finished >= sim_submitted": not any(
                p["mismatched"] for p in phases.values()
            ),
            "daemon exited cleanly": code == 0,
        },
        "errors": [e for p in phases.values() for e in p["errors"]][:5],
        "phases": phases,
        "client_cpu_us_per_op": cpu / requests * 1e6,
        "daemon_cpu_us_per_op": daemon_cpu_s / requests * 1e6,
        "rtt_p50_ms": percentile([x for p in phases.values() for x in p["rtt_ms"]], 50),
        "server": server,
    }
    if tracer is not None:
        with open(DAEMON_SUMMARY) as fh:
            daemon = json.load(fh)
        record["layers"] = {"daemon": daemon["layers"]}
        record["counters"] = {"daemon": daemon["counters"]}
        record["daemon_spans"] = daemon["spans"]
    return record
