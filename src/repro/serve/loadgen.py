"""Multi-process load generator for the Slate serving daemon.

Each client is a real OS process (or, for embedding in tests, a thread)
running :class:`~repro.serve.client.SlateClient` against the daemon's
socket.  The request sequence of every client is planned *up front* from
``Random(f"{seed}:{client}")`` over the configured workload mix, so a given
``(seed, clients, requests, mix)`` tuple always issues exactly the same
kernels in the same per-client order regardless of timing — runs are
reproducible even though the daemon serves them live.

Two driving disciplines:

``closed``
    Each client issues its next request the moment the previous reply
    lands (think time zero) — measures saturation throughput.
``open``
    Each client draws Poisson inter-arrival gaps at ``rate`` requests/s
    and sends on schedule (never early; late sends are issued immediately,
    the standard open-loop treatment) — measures latency under offered
    load.

The report aggregates wall-clock request latencies into p50/p90/p99 and
requests/s — the numbers ``benchmarks/test_serve_perf.py`` pins into
``BENCH_serve.json``.

Measurement hygiene: ``warmup`` requests per client are issued and
discarded before the measurement clock starts, so connection setup,
process spawn, and first-launch effects never pollute throughput rows,
and the aggregate rate is computed over the *measured* window (the
longest per-client measuring span), not the fleet-spawn wall time.
Besides wall-clock numbers the report carries the *simulated* aggregate:
``sim_requests_per_s`` sums per-shard completed/sim-span rates — with N
shards there are N independent simulated GPUs, so this is the capacity
number sharding actually scales (wall-clock throughput on a small host
is bounded by CPU cores; see ``benchmarks/README.md``).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import socket
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.kernels.registry import by_name
from repro.obs.registry import Histogram
from repro.serve.client import SlateClient
from repro.serve.protocol import MessageStream, request

__all__ = [
    "DEFAULT_MIX",
    "LoadGenConfig",
    "LoadGenReport",
    "fetch_server_metrics",
    "parse_mix",
    "percentile",
    "plan_client",
    "run_loadgen",
]

#: Equal-weight mix over the paper's five evaluation benchmarks.
DEFAULT_MIX = "BS:1,GS:1,MM:1,RG:1,TR:1"


def parse_mix(mix: str) -> list[tuple[str, float]]:
    """Parse ``"BS:2,MM:1"`` into validated ``(kernel, weight)`` pairs."""
    pairs: list[tuple[str, float]] = []
    for part in mix.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition(":")
        name = name.strip().upper()
        by_name(name)  # raises UnknownKernelError for bad names
        weight = float(weight_text) if weight_text.strip() else 1.0
        if weight <= 0:
            raise ValueError(f"mix weight for {name} must be positive, got {weight}")
        pairs.append((name, weight))
    if not pairs:
        raise ValueError(f"empty workload mix {mix!r}")
    return pairs


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def fetch_server_metrics(
    socket_path: str,
    timeout: float = 5.0,
    recent: Optional[int] = None,
    fresh: bool = False,
) -> Optional[dict]:
    """Scrape the daemon's aggregated ``metrics`` view (session-less).

    Opens a bare connection and issues the v2 ``metrics`` op without a
    ``hello`` — no session slot is consumed, so this works even against a
    daemon at its session limit.  Every scrape reflects the daemon's
    state when it answers; ``fresh`` is ignored (kept only so existing
    callers that pass it keep working).  Failure-tolerant by design: any
    error (old server, daemon already gone, timeout) returns ``None``
    rather than failing the load-generation run that wants to attach the
    scrape.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        stream = MessageStream(sock)
        params: dict = {} if recent is None else {"recent": recent}
        stream.send(request(1, "metrics", **params))
        reply = stream.recv()
        if reply.get("ok"):
            return reply.get("result") or {}
        return None
    except Exception:
        return None
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _histogram_quantiles(metrics: Optional[dict], name: str) -> dict:
    """p50/p99 (+count) of one server-side histogram from a metrics scrape."""
    if not metrics:
        return {}
    state = (metrics.get("registry") or {}).get("histograms", {}).get(name)
    if not state or not state.get("count"):
        return {}
    h = Histogram.from_state(name, state)
    return {"count": h.count, "p50": h.quantile(0.50), "p99": h.quantile(0.99)}


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generation run (picklable: crosses process boundaries)."""

    socket_path: str
    clients: int = 4
    #: Requests planned per client.
    requests: int = 50
    mode: str = "closed"  # "closed" | "open"
    #: Per-client offered load for open-loop mode (requests/second).
    rate: float = 200.0
    seed: int = 0
    mix: str = DEFAULT_MIX
    #: ``request`` draws a kernel per request; ``client`` draws one kernel
    #: per *client* (every request the same) — the shape that exercises
    #: placement, since a session's contention class is then well defined.
    mix_mode: str = "request"
    #: Unmeasured requests per client before the measurement clock starts
    #: (absorbs connect, spawn, and first-launch costs).
    warmup: int = 0
    task_size: Optional[int] = None
    #: Automatic backoff-retries per request on backpressure replies.
    busy_retries: int = 8
    #: Stop issuing new requests after this many wall seconds (per client).
    duration: Optional[float] = None
    #: False runs clients as threads in-process (tests/embedding); True
    #: spawns real OS processes (the default, and what ``repro loadgen``
    #: exercises).
    processes: bool = True
    name_prefix: str = "loadgen"

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.mix_mode not in ("request", "client"):
            raise ValueError(
                f"mix_mode must be 'request' or 'client', got {self.mix_mode!r}"
            )
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        parse_mix(self.mix)  # fail fast on bad mixes


def plan_client(cfg: LoadGenConfig, client: int) -> tuple[list[str], list[float]]:
    """The deterministic plan for one client: kernels + arrival offsets.

    Depends only on ``(seed, client, requests, mix, mode, rate)`` — never
    on timing — which is what makes per-seed runs reproducible.
    """
    pairs = parse_mix(cfg.mix)
    names = [name for name, _ in pairs]
    weights = [weight for _, weight in pairs]
    rng = random.Random(f"{cfg.seed}:{client}")
    total = cfg.warmup + cfg.requests
    if cfg.mix_mode == "client":
        kernels = rng.choices(names, weights=weights, k=1) * total
    else:
        kernels = rng.choices(names, weights=weights, k=total)
    offsets: list[float] = []
    if cfg.mode == "open":
        t = 0.0
        for _ in range(total):
            t += rng.expovariate(cfg.rate)
            offsets.append(t)
    else:
        offsets = [0.0] * total
    return kernels, offsets


@dataclass
class ClientResult:
    """What one load-generating client observed."""

    client: int
    completed: int = 0
    errors: int = 0
    busy_retries: int = 0
    #: Measured wall span (excludes connect + warmup requests).
    elapsed: float = 0.0
    #: Warmup requests completed (never counted in stats).
    warmup: int = 0
    #: Shard this client's session was placed on (None pre-v2 servers).
    shard: Optional[int] = None
    #: Simulated submit/finish span of the measured requests.
    sim_first: Optional[float] = None
    sim_last: Optional[float] = None
    latencies: list[float] = field(default_factory=list)
    sim_latencies: list[float] = field(default_factory=list)
    kernels: dict[str, int] = field(default_factory=dict)
    error_messages: list[str] = field(default_factory=list)


def _run_client(cfg: LoadGenConfig, client: int) -> ClientResult:
    """Drive one client's planned sequence; module-level for picklability."""
    kernels, offsets = plan_client(cfg, client)
    result = ClientResult(client=client)
    counts: Counter = Counter()
    start = time.perf_counter()
    measure_start = start
    try:
        with SlateClient(
            cfg.socket_path,
            name=f"{cfg.name_prefix}-{client}",
            kernel_hint=kernels[0] if kernels else None,
            backoff_seed=f"{cfg.seed}:backoff:{client}",
        ) as conn:
            result.shard = conn.shard
            for i, kernel in enumerate(kernels):
                measuring = i >= cfg.warmup
                if measuring and i == cfg.warmup:
                    measure_start = time.perf_counter()
                if cfg.duration is not None and (
                    time.perf_counter() - start
                ) >= cfg.duration:
                    break
                if cfg.mode == "open":
                    lag = (start + offsets[i]) - time.perf_counter()
                    if lag > 0:
                        time.sleep(lag)
                try:
                    reply = conn.launch(
                        kernel,
                        task_size=cfg.task_size,
                        busy_retries=cfg.busy_retries,
                    )
                except Exception as exc:
                    result.errors += 1
                    if len(result.error_messages) < 5:
                        result.error_messages.append(f"{type(exc).__name__}: {exc}")
                else:
                    if not measuring:
                        result.warmup += 1
                        continue
                    result.completed += 1
                    result.busy_retries += reply.retries
                    result.latencies.append(reply.latency)
                    result.sim_latencies.append(reply.sim_latency)
                    if result.sim_first is None:
                        result.sim_first = reply.sim_submitted
                    result.sim_first = min(result.sim_first, reply.sim_submitted)
                    result.sim_last = max(
                        result.sim_last if result.sim_last is not None else 0.0,
                        reply.sim_finished,
                    )
                    counts[kernel] += 1
    except Exception as exc:
        result.errors += 1
        result.error_messages.append(f"{type(exc).__name__}: {exc}")
    result.elapsed = time.perf_counter() - measure_start
    result.kernels = dict(counts)
    return result


@dataclass
class LoadGenReport:
    """Aggregated outcome of one load-generation run."""

    clients: int
    mode: str
    seed: int
    mix: str
    completed: int
    errors: int
    busy_retries: int
    wall: float
    requests_per_s: float
    latency_mean: float
    latency_p50: float
    latency_p90: float
    latency_p99: float
    latency_max: float
    kernels: dict[str, int]
    per_client: list[ClientResult]
    error_messages: list[str]
    #: Warmup requests completed across clients (excluded from stats).
    warmup_completed: int = 0
    #: Longest per-client *measured* span — the denominator of
    #: ``requests_per_s`` (excludes fleet spawn + warmup).
    measure_wall: float = 0.0
    #: Aggregate simulated throughput: per-shard completed/sim-span rates
    #: summed.  N shards run N independent simulated GPUs, so this is the
    #: capacity figure that scales with the shard count.
    sim_requests_per_s: float = 0.0
    sim_latency_mean: float = 0.0
    sim_latency_p50: float = 0.0
    sim_latency_p99: float = 0.0
    #: Per-shard breakdown: completed counts, sim span, sim rate.
    shards: dict = field(default_factory=dict)
    #: Server-side cross-check, derived from the daemon's own bucketed
    #: latency histograms via a post-run ``metrics`` scrape.  Recorded
    #: next to the client-side percentiles so e2e tests can assert the
    #: two views agree within bucket resolution.  ``None`` when the
    #: scrape failed (pre-v2 server, daemon already gone).
    server_sim_latency_p50: Optional[float] = None
    server_sim_latency_p99: Optional[float] = None
    server_latency_p99: Optional[float] = None
    #: Launches the server's sim-latency histogram counted (includes
    #: warmup requests; equals ``completed`` when ``warmup == 0``).
    server_launch_count: Optional[int] = None
    #: The full metrics scrape (merged fleet registry + per-shard rows).
    server_metrics: Optional[dict] = None

    def to_dict(self) -> dict:
        body = asdict(self)
        # Raw per-request latencies are bulky; the summary carries the
        # percentiles, so exports keep only counts per client.
        for client in body["per_client"]:
            client["latencies"] = len(client["latencies"])
            client["sim_latencies"] = len(client["sim_latencies"])
        # The per-shard registries inside the scrape duplicate the merged
        # fleet registry; elide them (asdict deep-copied, so the live
        # report object keeps the full scrape).
        scrape = body.get("server_metrics")
        if scrape:
            for shard in (scrape.get("shards") or {}).values():
                if isinstance(shard, dict) and shard.get("registry"):
                    shard["registry"] = "<elided>"
        return body

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format(self) -> str:
        lines = [
            f"loadgen: {self.clients} client(s), mode={self.mode}, "
            f"seed={self.seed}, mix={self.mix}",
            f"  completed {self.completed} launches in {self.wall:.2f}s "
            f"({self.requests_per_s:.1f} req/s), {self.errors} error(s), "
            f"{self.busy_retries} busy retries",
            f"  latency: mean {self.latency_mean * 1e3:.2f} ms, "
            f"p50 {self.latency_p50 * 1e3:.2f} ms, "
            f"p90 {self.latency_p90 * 1e3:.2f} ms, "
            f"p99 {self.latency_p99 * 1e3:.2f} ms, "
            f"max {self.latency_max * 1e3:.2f} ms",
            f"  simulated: {self.sim_requests_per_s:.1f} req/s aggregate "
            f"across {len(self.shards) or 1} shard(s), "
            f"sim latency p50 {self.sim_latency_p50 * 1e3:.3f} ms",
        ]
        if self.server_sim_latency_p99 is not None:
            lines.append(
                f"  server-side: sim latency p50 "
                f"{(self.server_sim_latency_p50 or 0.0) * 1e3:.3f} ms, "
                f"p99 {self.server_sim_latency_p99 * 1e3:.3f} ms over "
                f"{self.server_launch_count} launch(es)"
            )
        lines += [
            "  kernels: "
            + ", ".join(f"{k}:{n}" for k, n in sorted(self.kernels.items())),
        ]
        for message in self.error_messages[:5]:
            lines.append(f"  error: {message}")
        return "\n".join(lines)


def _mp_context():
    """Fork where available (fast, Linux); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


def run_loadgen(cfg: LoadGenConfig) -> LoadGenReport:
    """Run the configured fleet of clients and aggregate their results."""
    t0 = time.perf_counter()
    if cfg.clients == 1:
        results = [_run_client(cfg, 0)]
    elif cfg.processes:
        with ProcessPoolExecutor(
            max_workers=cfg.clients, mp_context=_mp_context()
        ) as pool:
            results = list(pool.map(_run_client, [cfg] * cfg.clients, range(cfg.clients)))
    else:
        with ThreadPoolExecutor(max_workers=cfg.clients) as pool:
            results = list(pool.map(_run_client, [cfg] * cfg.clients, range(cfg.clients)))
    wall = time.perf_counter() - t0

    latencies = [lat for r in results for lat in r.latencies]
    sim_latencies = [lat for r in results for lat in r.sim_latencies]
    completed = sum(r.completed for r in results)
    kernels: Counter = Counter()
    for r in results:
        kernels.update(r.kernels)
    messages = [m for r in results for m in r.error_messages]
    # Throughput over the measured window: the longest per-client
    # measuring span (clients overlap; spawn + warmup excluded).
    measure_wall = max((r.elapsed for r in results), default=0.0)
    # Simulated aggregate: shards run independent sim clocks, so rates
    # are per-shard completed/sim-span, then summed across shards.
    shard_groups: dict = {}
    for r in results:
        key = r.shard if r.shard is not None else 0
        group = shard_groups.setdefault(
            key, {"completed": 0, "clients": 0, "first": None, "last": None}
        )
        group["completed"] += r.completed
        group["clients"] += 1
        if r.sim_first is not None:
            group["first"] = (
                r.sim_first
                if group["first"] is None
                else min(group["first"], r.sim_first)
            )
            group["last"] = (
                r.sim_last
                if group["last"] is None
                else max(group["last"], r.sim_last)
            )
    shards_out: dict = {}
    sim_rps = 0.0
    for key, group in sorted(shard_groups.items()):
        span = (
            group["last"] - group["first"]
            if group["first"] is not None and group["last"] is not None
            else 0.0
        )
        rate = group["completed"] / span if span > 0 else 0.0
        sim_rps += rate
        shards_out[str(key)] = {
            "completed": group["completed"],
            "clients": group["clients"],
            "sim_span": span,
            "sim_requests_per_s": rate,
        }
    # Post-run server-side cross-check (failure-tolerant: None on any
    # error, never fails the run — see fetch_server_metrics).
    server_metrics = fetch_server_metrics(cfg.socket_path)
    sim_q = _histogram_quantiles(server_metrics, "serve.sim_latency.launch")
    wall_q = _histogram_quantiles(server_metrics, "serve.latency.launch")
    return LoadGenReport(
        clients=cfg.clients,
        mode=cfg.mode,
        seed=cfg.seed,
        mix=cfg.mix,
        completed=completed,
        errors=sum(r.errors for r in results),
        busy_retries=sum(r.busy_retries for r in results),
        wall=wall,
        requests_per_s=completed / measure_wall if measure_wall > 0 else 0.0,
        latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50=percentile(latencies, 50),
        latency_p90=percentile(latencies, 90),
        latency_p99=percentile(latencies, 99),
        latency_max=max(latencies, default=0.0),
        kernels=dict(kernels),
        per_client=results,
        error_messages=messages[:10],
        warmup_completed=sum(r.warmup for r in results),
        measure_wall=measure_wall,
        sim_requests_per_s=sim_rps,
        sim_latency_mean=(
            sum(sim_latencies) / len(sim_latencies) if sim_latencies else 0.0
        ),
        sim_latency_p50=percentile(sim_latencies, 50),
        sim_latency_p99=percentile(sim_latencies, 99),
        shards=shards_out,
        server_sim_latency_p50=sim_q.get("p50"),
        server_sim_latency_p99=sim_q.get("p99"),
        server_latency_p99=wall_q.get("p99"),
        server_launch_count=sim_q.get("count"),
        server_metrics=server_metrics,
    )
