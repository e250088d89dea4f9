"""Command-line interface: ``python -m repro <command>``.

Commands
--------
experiments  Reproduce paper tables/figures (all or selected keys).
profile      Offline-profile a benchmark and print its nvprof-style report.
occupancy    Occupancy calculator for a thread-block shape.
transform    Scan + inject a CUDA source file the way the daemon does.
pair         Run one application pairing under all three runtimes.
trace        Replay an arrival trace and render the SM timeline.
tune         Predicted task-size sweep for a benchmark kernel.
obs          Observability: dump/export metrics, validate traces/exposition.
serve        Run the Slate serving daemon on a Unix domain socket.
client       Connect to a running daemon and launch kernels.
loadgen      Drive a running daemon with multi-process load.
top          Live fleet dashboard over a running daemon's telemetry feed.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_experiments(args: argparse.Namespace) -> int:
    import contextlib
    import time

    from repro.experiments.runner import format_profile_table, iter_battery, select_keys

    keys = args.keys or None
    select_keys(keys)  # an unknown key exits 2 before anything runs
    jobs = args.jobs
    capture = contextlib.nullcontext()
    if args.trace:
        from repro.obs import trace as obs_trace
        from repro.obs.export import run_metadata, write_chrome_trace

        if jobs != 1:
            print(
                "note: --trace forces --jobs 1 (the trace sink is per-process)",
                file=sys.stderr,
            )
            jobs = 1
        capture = obs_trace.capture(metadata=run_metadata(experiments=args.keys or ["all"]))
    battery_start = time.perf_counter()
    runs = []
    with capture as sink:
        for run in iter_battery(keys, jobs=jobs, profile=args.profile):
            runs.append(run)
            print(f"\n{'#' * 72}\n# {run.title}  [{run.elapsed:.2f}s]\n{'#' * 72}")
            print(run.formatted)
    total = time.perf_counter() - battery_start
    if args.profile:
        print(f"\nEngine profile (per experiment):\n{format_profile_table(runs)}")
    print(
        f"\n{len(runs)} experiment{'s' if len(runs) != 1 else ''} "
        f"in {total:.2f}s wall clock (jobs={max(1, jobs)})"
    )
    if args.trace:
        write_chrome_trace(args.trace, sink)
        print(f"perfetto trace written to {args.trace} ({len(sink)} events)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.config import CostModel, TITAN_XP
    from repro.gpu.device import ExecutionMode, SimulatedGPU
    from repro.kernels.registry import by_name
    from repro.metrics.counters import collect
    from repro.sim import Environment
    from repro.slate.profiler import profile_from_counters

    spec = by_name(args.benchmark)
    mode = ExecutionMode.SLATE if args.slate else ExecutionMode.HARDWARE
    env = Environment()
    gpu = SimulatedGPU(env, TITAN_XP, CostModel())
    kwargs = {"task_size": args.task_size, "inject_frac": 0.03} if args.slate else {}
    counters = [
        env.run(until=gpu.launch(spec.work(), mode=mode, **kwargs).done)
        for _ in range(args.launches)
    ]
    print(collect(counters).format())
    profile = profile_from_counters(counters[0])
    print(
        f"\nintensity class: {profile.intensity.value}, "
        f"bandwidth saturation at ~{profile.saturation_sms()} SMs"
    )
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.slate.source import inject, scan_kernels

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    kernels = scan_kernels(source)
    if not kernels:
        print("no __global__ kernels found", file=sys.stderr)
        return 1
    for kernel in kernels:
        print(f"// ===== transformed: {kernel.name} =====")
        print(inject(kernel))
    return 0


def _cmd_occupancy(args: argparse.Namespace) -> int:
    from repro.config import TESLA_V100, TITAN_XP
    from repro.gpu.occupancy import BlockResources, analyze, occupancy_curve

    device = TESLA_V100 if args.device == "v100" else TITAN_XP
    block = BlockResources(args.threads, args.regs, args.smem)
    report = analyze(device, block)
    print(f"{device.name}: {args.threads} threads/block, {args.regs} regs, {args.smem} B smem")
    print(f"  resident blocks/SM : {report.result.blocks_per_sm} (limited by {report.result.limiter})")
    print(f"  warp occupancy     : {report.occupancy_fraction:.0%}")
    for resource, limit in sorted(report.limits.items()):
        print(f"    {resource:12} would allow {limit}")
    print(f"  hint: {report.headroom_hint}")
    print("\n  block-size sweep (threads -> occupancy):")
    curve = occupancy_curve(device, max(args.threads, 512), args.regs, args.smem)
    for threads, frac in curve.items():
        bar = "#" * int(frac * 40)
        print(f"    {threads:5}  {frac:5.0%}  {bar}")
    return 0


_EXPORT_FORMATS = ("perfetto", "chrome", "jsonl")


def _add_slicing_args(p) -> None:
    """The Kernelet-style slicing flags shared by trace/pair/serve."""
    p.add_argument(
        "--slicing", action="store_true",
        help="dispatch Slate launches as sub-grid slices (resize and "
             "preemption land at slice edges instead of retreat drains)",
    )
    p.add_argument(
        "--slice-blocks", type=int, default=None, metavar="N",
        help="blocks per slice (default: policy-chosen, falling back to "
             "grid/8); implies nothing without --slicing",
    )


def _slicing_kwargs(args: argparse.Namespace) -> dict:
    """Runtime kwargs for the slicing flags (empty when off)."""
    if not args.slicing:
        return {}
    kwargs = {"slicing": True}
    if args.slice_blocks is not None:
        kwargs["slice_blocks"] = args.slice_blocks
    return kwargs


def _trace_export(fmt: str, path: str, sink) -> None:
    """Write ``sink`` to ``path`` in the requested ``--export`` format."""
    from repro.obs.export import write_chrome_trace, write_jsonl

    if fmt == "jsonl":
        write_jsonl(path, sink)
    else:  # perfetto / chrome share the trace-event JSON format
        write_chrome_trace(path, sink)
    print(f"{fmt} trace written to {path} ({len(sink)} events)")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.metrics.timeline import render_timeline
    from repro.metrics.utilization import summarize_utilization
    from repro.obs import trace as obs_trace
    from repro.obs.export import run_metadata
    from repro.workloads.trace import (
        generate_bursty_trace,
        generate_heavy_tailed_trace,
        generate_trace,
        replay_trace,
    )

    export = args.export
    if export is not None and export[0] not in _EXPORT_FORMATS:
        print(
            f"error: unknown export format {export[0]!r} "
            f"(choose from {', '.join(_EXPORT_FORMATS)})",
            file=sys.stderr,
        )
        return 2
    meta = run_metadata(
        seed=args.seed, pattern=args.pattern, runtime=args.runtime, apps=args.apps
    )
    if args.apps <= 0:
        # Degenerate trace: nothing arrives, nothing runs.  Still a valid
        # request — print the empty timeline and write a valid (empty)
        # export rather than crashing in the generators.
        print(f"{args.pattern} trace, 0 tenants, seed {args.seed}:")
        print("(empty timeline)")
        if export is not None:
            _trace_export(export[0], export[1], obs_trace.TraceSink(metadata=meta))
        return 0

    generators = {
        "poisson": lambda: generate_trace(args.apps, seed=args.seed),
        "bursty": lambda: generate_bursty_trace(
            max(1, args.apps // 4), 4, seed=args.seed
        ),
        "heavy-tailed": lambda: generate_heavy_tailed_trace(args.apps, seed=args.seed),
    }
    trace = generators[args.pattern]()
    print(f"{args.pattern} trace, {len(trace)} tenants, seed {args.seed}:")
    for entry in trace:
        print(f"  t={entry.arrival * 1e3:8.2f} ms  {entry.app.name} x{entry.app.reps}")
    replay_kwargs = {}
    if args.runtime == "Slate":
        replay_kwargs["policy"] = args.policy
        replay_kwargs.update(_slicing_kwargs(args))
    elif args.policy != "table1":
        print(
            f"error: --policy applies to the Slate runtime, not {args.runtime}",
            file=sys.stderr,
        )
        return 2
    elif args.slicing:
        print(
            f"error: --slicing applies to the Slate runtime, not {args.runtime}",
            file=sys.stderr,
        )
        return 2
    if export is not None:
        with obs_trace.capture(metadata=meta) as sink:
            results, runtime = replay_trace(args.runtime, trace, **replay_kwargs)
    else:
        sink = None
        results, runtime = replay_trace(args.runtime, trace, **replay_kwargs)
    makespan = max(r.end for r in results.values())
    print(f"\n{args.runtime}: makespan {makespan * 1e3:.1f} ms")
    if hasattr(runtime, "scheduler"):
        log = runtime.scheduler.allocation_log
        print(render_timeline(log, coalesce_window=0.3e-3, max_rows=30))
        summary = summarize_utilization(log, end_time=log[-1][0])
        print(
            f"utilization: mean SM coverage {summary.mean_sm_occupancy:.0%}, "
            f"shared {summary.shared_fraction:.0%}, idle {summary.idle_fraction:.0%}"
        )
    if sink is not None:
        _trace_export(export[0], export[1], sink)
    return 0


def _obs_scrape(socket_path: str, recent: int | None = None) -> dict | None:
    """Session-less ``metrics`` scrape of a live daemon (None on failure)."""
    from repro.serve.loadgen import fetch_server_metrics

    return fetch_server_metrics(socket_path, recent=recent)


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "dump":
        recent = getattr(args, "recent", None)
        if recent:
            if not args.socket:
                print("error: --recent needs --socket (the flight recorder "
                      "lives in the daemon)", file=sys.stderr)
                return 2
            return _cmd_obs_dump_recent(args, recent)
        if args.socket:
            scrape = _obs_scrape(args.socket)
            if scrape is None:
                print(f"could not scrape {args.socket}", file=sys.stderr)
                return 1
            print(json.dumps(scrape, indent=2, sort_keys=True))
            return 0
        from repro.obs.registry import registry

        print(registry().to_json())
        return 0
    if args.obs_command == "export":
        return _cmd_obs_export(args)
    if getattr(args, "prom", False):
        from repro.obs.validate import validate_prometheus_file

        problems = validate_prometheus_file(args.file)
        label = "Prometheus exposition"
    else:
        from repro.obs.validate import validate_file

        problems = validate_file(args.file)
        label = "trace-event JSON"
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.file}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{args.file}: valid {label}")
    return 0


def _cmd_obs_dump_recent(args: argparse.Namespace, recent: int) -> int:
    """Dump a daemon's recent trace events as Perfetto JSON."""
    from repro.obs.export import decode_events, write_chrome_trace

    out = args.out or "flight-recent.json"
    scrape = _obs_scrape(args.socket, recent=recent)
    if scrape is None:
        print(f"could not scrape {args.socket}", file=sys.stderr)
        return 1
    events = scrape.get("recent") or []
    sink = decode_events(
        events, metadata={"source": args.socket, **(scrape.get("recorder") or {})}
    )
    write_chrome_trace(out, sink)
    print(f"{len(events)} recent event(s) written to {out}")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Export metrics — Prometheus text with --prom, JSON otherwise."""
    from repro.obs.aggregate import to_prometheus
    from repro.obs.registry import registry

    if args.socket:
        scrape = _obs_scrape(args.socket)
        if scrape is None:
            print(f"could not scrape {args.socket}", file=sys.stderr)
            return 1
        state = scrape.get("registry") or {}
    else:
        state = registry().export_state()
    text = to_prometheus(state) if args.prom else json.dumps(
        state, indent=2, sort_keys=True
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"metrics written to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    return run_top(
        args.socket,
        interval=args.interval,
        iterations=args.iterations,
        plain=args.plain,
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.kernels.registry import by_name
    from repro.slate.tuning import auto_task_size

    spec = by_name(args.benchmark)
    choice = auto_task_size(spec)
    print(f"{spec.name}: predicted kernel time by SLATE_ITERS")
    for size, t in sorted(choice.sweep.items()):
        marker = "  <-- best" if size == choice.task_size else ""
        print(f"  {size:4}  {t * 1e3:8.3f} ms{marker}")
    print(
        f"tuned size {choice.task_size} is {choice.improvement_over(10):+.1%} "
        "vs the paper's fixed 10"
    )
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    from repro.metrics.antt import antt
    from repro.workloads.harness import pair_apps, run_pair, solo_times

    a, b = args.bench_a.upper(), args.bench_b.upper()
    app_a, app_b = pair_apps(a, b)
    solo = solo_times((a, b))
    baseline = {app_a.name: solo[a], app_b.name: solo[b]}
    for runtime in ("CUDA", "MPS", "Slate"):
        kwargs = (
            {"policy": args.policy, **_slicing_kwargs(args)}
            if runtime == "Slate"
            else {}
        )
        results, rt = run_pair(runtime, app_a, app_b, **kwargs)
        shared = {k: v.app_time for k, v in results.items()}
        line = f"{runtime:5}  ANTT {antt(shared, baseline):.3f}"
        for name, t in shared.items():
            line += f"  {name} {t * 1e3:8.1f} ms"
        if runtime == "Slate":
            line += (
                f"  [{rt.scheduler.policy.name}: {rt.scheduler.corun_launches} "
                f"corun, {rt.scheduler.resizes} resizes]"
            )
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.obs import trace as obs_trace
    from repro.obs.export import run_metadata, write_chrome_trace
    from repro.obs.registry import registry
    from repro.serve.server import ServeConfig, SlateServer

    config = ServeConfig(
        socket_path=args.socket,
        placement=args.placement,
        policy=args.policy,
        shards=args.shards,
        shard_inflight=args.shard_inflight,
        max_inflight=args.max_inflight,
        session_inflight=args.session_inflight,
        max_sessions=args.max_sessions,
        log_limit=args.log_limit,
        duration=args.duration,
        slo=args.slo,
        flight_recorder=args.flight_recorder,
        flight_dump=args.flight_dump,
        runtime_kwargs=_slicing_kwargs(args),
    )

    meta = run_metadata(
        command="serve", socket=args.socket, shards=args.shards,
    )
    # One sink: the full --trace capture, or else the always-on flight
    # ring (bounded, light detail).  Its newest events feed the crash and
    # SIGUSR1 dumps and the metrics op's ``recent`` reply.
    dump_path = config.flight_dump_path()
    if args.trace:
        sink = obs_trace.TraceSink(metadata=meta)
    elif dump_path is not None:
        sink = obs_trace.TraceSink(
            capacity=config.flight_recorder, detail="light", metadata=meta
        )
    else:
        sink = None
    obs_trace.set_sink(sink)

    def dump(reason: str) -> None:
        write_chrome_trace(
            dump_path, sink, newest=config.flight_recorder, reason=reason,
            flight_recorder=config.flight_recorder,
        )

    async def serve(server: SlateServer) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        if dump_path is not None:
            try:
                loop.add_signal_handler(signal.SIGUSR1, dump, "SIGUSR1")
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(f"slate daemon listening on {args.socket}", flush=True)
        await server.serve_forever()

    server = SlateServer(config)
    try:
        asyncio.run(serve(server))
    except BaseException:
        if dump_path is not None:
            try:
                dump("crash")
            except Exception:  # pragma: no cover - dump must not mask the crash
                pass
        raise
    finally:
        obs_trace.set_sink(None)
    if args.trace:
        write_chrome_trace(args.trace, sink)
        print(f"perfetto trace written to {args.trace} ({len(sink)} events)")
    stats = server.stats()
    print(
        f"served {stats['requests']} requests ({stats['launches']} launches, "
        f"{stats['errors']} errors) across {stats['sessions_opened']} sessions; "
        f"{stats['shard_count']} shard(s), placement {stats['placement']}; "
        f"sim time {stats['sim_time'] * 1e3:.1f} ms"
    )
    if args.dump_metrics:
        snapshot = registry().snapshot()
        snapshot["sources"]["engine"] = server.engine_stats()
        with open(args.dump_metrics, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"metrics snapshot written to {args.dump_metrics}")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import SlateClient

    client = SlateClient(
        args.socket,
        name=args.name,
        connect_retries=args.connect_retries,
        kernel_hint=args.kernel.upper(),
        affinity=args.affinity,
        shard=args.shard,
    )
    try:
        client.connect()
    except (OSError, ConnectionError) as exc:
        print(f"could not connect to {args.socket}: {exc}", file=sys.stderr)
        return 1
    with client:
        pong = client.ping()
        placed = f", shard {client.shard}" if client.shard is not None else ""
        print(
            f"connected as {client.session_name} "
            f"(sim t={pong['sim_time'] * 1e3:.2f} ms{placed})"
        )
        reg = client.register(args.kernel.upper())
        print(f"registered {reg['kernel']} (compile {reg['compile_time'] * 1e3:.2f} ms)")
        for i in range(args.reps):
            reply = client.launch(
                args.kernel.upper(),
                task_size=args.task_size,
                priority=args.priority,
                busy_retries=8,
            )
            print(
                f"  launch {i + 1}: wall {reply.latency * 1e3:7.2f} ms, "
                f"sim {reply.sim_latency * 1e3:7.3f} ms"
                + (f" (exec {reply.sim_exec * 1e3:.3f} ms)" if reply.sim_exec else "")
            )
        stats = client.stats()
        server = stats["server"]
        print(
            f"server: {server['sessions']} session(s), {server['launches']} launches "
            f"served, sim time {server['sim_time'] * 1e3:.1f} ms"
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import LoadGenConfig, run_loadgen

    config = LoadGenConfig(
        socket_path=args.socket,
        clients=args.clients,
        requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        mix=args.mix,
        mix_mode=args.mix_mode,
        warmup=args.warmup,
        task_size=args.task_size,
        duration=args.duration,
        processes=not args.threads,
    )
    report = run_loadgen(config)
    print(report.format())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.json}")
    if report.errors or not report.completed:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="reproduce paper tables/figures")
    p.add_argument("keys", nargs="*", help="e.g. fig1 tab3 fig7 (default: all)")
    p.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes to shard experiments across (default: 1)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print per-experiment engine counters (events, recomputes, wall-clock)",
    )
    p.add_argument(
        "--trace", metavar="PATH",
        help=(
            "capture structured tracing across the battery and write a "
            "Perfetto/chrome://tracing JSON here (forces --jobs 1; "
            "REPRO_NO_CACHE=1 also traces the offline profiling that cached "
            "profiles skip)"
        ),
    )
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("profile", help="profile a benchmark kernel")
    p.add_argument("benchmark", help="BS | GS | MM | RG | TR | STREAM")
    p.add_argument("--slate", action="store_true", help="Slate scheduling")
    p.add_argument("--task-size", type=int, default=10)
    p.add_argument("--launches", type=int, default=3)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("transform", help="inject Slate scheduling into CUDA source")
    p.add_argument("file", help="path to a .cu file, or - for stdin")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("occupancy", help="occupancy calculator for a block shape")
    p.add_argument("threads", type=int)
    p.add_argument("--regs", type=int, default=32)
    p.add_argument("--smem", type=int, default=0)
    p.add_argument("--device", choices=["titanxp", "v100"], default="titanxp")
    p.set_defaults(func=_cmd_occupancy)

    from repro.slate.placement import PLACEMENTS
    from repro.slate.policy import policy_names

    p = sub.add_parser("trace", help="replay an arrival trace with a timeline")
    p.add_argument("--runtime", choices=["CUDA", "MPS", "Slate"], default="Slate")
    p.add_argument("--pattern", choices=["poisson", "bursty", "heavy-tailed"], default="poisson")
    p.add_argument("--apps", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=policy_names(), default="table1",
                   help="scheduling policy for the Slate runtime")
    _add_slicing_args(p)
    p.add_argument(
        "--export", nargs=2, metavar=("FORMAT", "PATH"),
        help=(
            "capture structured tracing during the replay and export it: "
            "FORMAT is perfetto|chrome (trace-event JSON) or jsonl"
        ),
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("tune", help="task-size sweep for a benchmark")
    p.add_argument("benchmark")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("pair", help="run a pairing under all runtimes")
    p.add_argument("bench_a")
    p.add_argument("bench_b")
    p.add_argument("--policy", choices=policy_names(), default="table1",
                   help="scheduling policy for the Slate row")
    _add_slicing_args(p)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("serve", help="run the Slate serving daemon (Unix socket)")
    p.add_argument("--socket", default="/tmp/slate.sock", help="Unix socket path")
    p.add_argument(
        "--placement",
        choices=PLACEMENTS,
        default="contention",
        help="session placement policy across shards (contention = "
             "Table-I scoring)",
    )
    p.add_argument("--policy", choices=policy_names(), default="table1",
                   help="scheduling policy every shard runs")
    _add_slicing_args(p)
    p.add_argument("--shards", type=int, default=1,
                   help="device shards, each with its own runtime + scheduler "
                        "+ sim engine behind the placement router")
    p.add_argument("--shard-inflight", type=int, default=None,
                   help="per-shard launch admission bound (default: "
                        "max-inflight split evenly across shards)")
    p.add_argument("--max-inflight", type=int, default=256,
                   help="global launch admission bound (backpressure above)")
    p.add_argument("--session-inflight", type=int, default=32,
                   help="per-session launch admission bound")
    p.add_argument("--max-sessions", type=int, default=64,
                   help="concurrent session bound")
    p.add_argument("--log-limit", type=int, default=256,
                   help="scheduler decision/allocation log bound")
    p.add_argument("--duration", type=float, default=None,
                   help="stop serving after this many seconds (default: until SIGINT)")
    p.add_argument("--trace", metavar="PATH",
                   help="capture request-lifecycle tracing; write Perfetto JSON on shutdown")
    p.add_argument("--dump-metrics", metavar="PATH",
                   help="write a metrics-registry snapshot here on shutdown")
    p.add_argument("--slo", metavar="PATH_OR_JSON", default=None,
                   help="SLO targets (JSON file or inline array; default: "
                        "built-in launch-latency targets)")
    p.add_argument("--flight-recorder", type=int, default=4096, metavar="N",
                   help="always-on flight-recorder ring capacity, and the most "
                        "events a crash/SIGUSR1 dump writes (0 disables both)")
    p.add_argument("--flight-dump", metavar="PATH", default=None,
                   help="flight-recorder dump path (default: <socket>.flight.json)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="connect to a running daemon and launch kernels")
    p.add_argument("kernel", nargs="?", default="RG", help="benchmark short name (default RG)")
    p.add_argument("--socket", default="/tmp/slate.sock")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--task-size", type=int, default=None)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--name", default=None, help="session name shown in daemon stats")
    p.add_argument("--affinity", default=None,
                   help="routing affinity key: sessions sharing it land on one shard")
    p.add_argument("--shard", type=int, default=None,
                   help="pin the session to a specific shard (validated server-side)")
    p.add_argument("--connect-retries", type=int, default=100,
                   help="retries while waiting for the daemon socket to appear")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("loadgen", help="drive a running daemon with multi-process load")
    p.add_argument("--socket", default="/tmp/slate.sock")
    p.add_argument("--clients", type=int, default=4, help="concurrent client processes")
    p.add_argument("--requests", type=int, default=50, help="launches per client")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--rate", type=float, default=200.0,
                   help="per-client offered load for --mode open (req/s)")
    p.add_argument("--seed", type=int, default=0, help="workload-mix seed")
    p.add_argument("--mix", default="BS:1,GS:1,MM:1,RG:1,TR:1",
                   help="weighted kernel mix, e.g. 'BS:2,MM:1'")
    p.add_argument("--mix-mode", choices=["request", "client"], default="request",
                   help="draw a kernel per request, or one per client "
                        "(the shape that exercises shard placement)")
    p.add_argument("--warmup", type=int, default=0,
                   help="unmeasured requests per client before the "
                        "measurement clock starts")
    p.add_argument("--task-size", type=int, default=None)
    p.add_argument("--duration", type=float, default=None,
                   help="per-client wall-clock budget for issuing requests")
    p.add_argument("--threads", action="store_true",
                   help="run clients as threads instead of processes")
    p.add_argument("--json", metavar="PATH", help="write the aggregated report here")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("obs", help="observability: registry dump/export, validation")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    q = obs_sub.add_parser("dump", help="print the metrics-registry snapshot as JSON")
    q.add_argument("--socket", default=None, metavar="PATH",
                   help="scrape a live daemon's aggregated fleet metrics "
                        "instead of this process's registry")
    q.add_argument("--recent", type=int, default=None, metavar="N",
                   help="dump the daemon's last N trace events as Perfetto "
                        "JSON instead of the registry (needs --socket)")
    q.add_argument("--out", default=None, metavar="PATH",
                   help="output path for --recent (default flight-recent.json)")
    q.set_defaults(func=_cmd_obs)
    q = obs_sub.add_parser("export", help="export metrics (Prometheus text or JSON)")
    q.add_argument("--prom", action="store_true",
                   help="Prometheus text exposition instead of JSON")
    q.add_argument("--socket", default=None, metavar="PATH",
                   help="scrape a live daemon (default: this process's registry)")
    q.add_argument("--out", default=None, metavar="PATH",
                   help="write here instead of stdout")
    q.set_defaults(func=_cmd_obs)
    q = obs_sub.add_parser(
        "validate", help="validate a trace-event JSON or Prometheus text file"
    )
    q.add_argument("file", help="path to an exported trace or exposition")
    q.add_argument("--prom", action="store_true",
                   help="validate as Prometheus text exposition")
    q.set_defaults(func=_cmd_obs)

    p = sub.add_parser("top", help="live fleet dashboard for a running daemon")
    p.add_argument("--socket", default="/tmp/slate.sock")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N refreshes (default: until q/Ctrl-C)")
    p.add_argument("--plain", action="store_true",
                   help="print frames to stdout instead of the curses UI")
    p.set_defaults(func=_cmd_top)

    return parser


def _user_errors() -> tuple[type, ...]:
    """Errors caused by what the user asked for, reported without a traceback:
    an unknown kernel or experiment name, or a typed refusal from the daemon
    (every class an error reply decodes to, ``UnknownKernelError`` included).

    Called from an ``except`` clause, so the imports run only on that path.
    """
    from repro.experiments.runner import UnknownExperimentError
    from repro.serve.protocol import ERROR_TYPES

    return (UnknownExperimentError, *ERROR_TYPES.values())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _user_errors() as exc:
        # args[0], not str(exc): a KeyError subclass would print its repr.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
