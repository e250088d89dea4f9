"""``repro top`` — a live dashboard over the daemon's telemetry feed.

Polls the session-less v2 ``metrics`` and ``stats`` ops (no ``hello``, so
watching a daemon never consumes a session slot) and renders per-shard
SM occupancy, sessions/inflight, sim-clock skew, launch-latency
percentiles from the fleet-merged bucketed histograms, SLO burn rates,
and the admission/trace-loss counters an operator actually pages on.

Two front ends share one pure renderer:

* ``--plain`` prints a frame per poll to stdout — pipeable, and what CI
  uses to prove the dashboard renders against a live fleet;
* the default is a curses full-screen view (``q`` quits), gated behind
  an import guard so the module works on builds without curses.

``fetch_feed``/``render`` are importable on their own: tests feed
``render`` canned feeds, and anything else that wants a one-line fleet
summary can reuse the fetch without dragging in a UI.
"""

from __future__ import annotations

import socket
import sys
import time
from typing import Optional

from repro.obs.registry import Histogram
from repro.serve.protocol import MessageStream, request

__all__ = ["fetch_feed", "render", "run_top"]


def fetch_feed(socket_path: str, timeout: float = 5.0) -> Optional[dict]:
    """One dashboard poll: the ``metrics`` + ``stats`` results, or None.

    Both ops are session-less, so the connection sends no ``hello`` and
    the daemon tracks no session for it.  Any failure (daemon down, old
    protocol, timeout) returns ``None`` — the dashboard renders a
    "no feed" frame instead of crashing mid-watch.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        stream = MessageStream(sock)
        feed: dict = {"polled_at": time.time()}
        for rid, op, key in ((1, "metrics", "metrics"), (2, "stats", "stats")):
            stream.send(request(rid, op))
            reply = stream.recv()
            if not reply.get("ok"):
                return None
            result = reply.get("result") or {}
            feed[key] = result.get("server", result) if op == "stats" else result
        return feed
    except Exception:
        return None
    finally:
        try:
            sock.close()
        except OSError:
            pass


# -- pure rendering -----------------------------------------------------------


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def _hist_quantiles(registry: dict, name: str) -> Optional[dict]:
    state = (registry or {}).get("histograms", {}).get(name)
    if not state or not state.get("count"):
        return None
    h = Histogram.from_state(name, state)
    return {
        "count": h.count,
        "p50": h.quantile(0.50),
        "p90": h.quantile(0.90),
        "p99": h.quantile(0.99),
        "p999": h.quantile(0.999),
    }


def _shard_occupancy(stats_block: Optional[dict]) -> Optional[dict]:
    if not isinstance(stats_block, dict):
        return None
    return stats_block.get("occupancy")


def _shard_rejections(stats_block: Optional[dict]) -> Optional[int]:
    if not isinstance(stats_block, dict):
        return None
    sched = stats_block.get("scheduler")
    if isinstance(sched, dict):
        return sched.get("rejections")
    return None


def render(feed: Optional[dict], width: int = 100) -> str:
    """Render one dashboard frame as plain text (pure: feed in, str out)."""
    if not feed:
        return "repro top: no feed (daemon unreachable or pre-v2 protocol)"
    metrics = feed.get("metrics") or {}
    stats = feed.get("stats") or {}
    registry = metrics.get("registry") or {}
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    lines: list[str] = []

    lines.append(
        f"repro top | shards {metrics.get('shard_count', stats.get('shard_count', '?'))}"
        f" | policy {stats.get('policy', '?')}"
        f" | sim {metrics.get('sim_time', 0.0):.3f}s"
        f" | uptime {stats.get('uptime', 0.0):.0f}s"
    )
    lines.append(
        f"sessions {stats.get('sessions', 0)} | inflight {stats.get('inflight', 0)}"
        f" | launches {counters.get('serve.launches', stats.get('launches', 0))}"
        f" | busy-rejected {stats.get('busy_rejections', 0)}"
        f" | errors {stats.get('errors', 0)}"
    )

    # Per-shard table from the metrics op's fleet view.
    shards = metrics.get("shards") or {}
    if shards:
        lines.append("")
        lines.append(
            f"{'shard':>5} {'sess':>5} {'infl':>5} {'occupancy':>12} "
            f"{'sim_time':>10} {'skew':>8} {'age':>6} {'rejects':>8}"
        )
        for key in sorted(shards, key=lambda k: int(k)):
            block = shards[key]
            occ = _shard_occupancy(block.get("stats"))
            occ_text = (
                f"{occ['covered_sms']}/{occ['num_sms']} SM" if occ else "-"
            )
            rejects = _shard_rejections(block.get("stats"))
            lines.append(
                f"{key:>5} {block.get('sessions', 0):>5} "
                f"{block.get('inflight', 0):>5} {occ_text:>12} "
                f"{block.get('sim_time', 0.0):>10.3f} "
                f"{block.get('sim_skew', 0.0):>8.3f} "
                f"{block.get('scrape_age', 0.0):>6.2f} "
                f"{rejects if rejects is not None else '-':>8}"
            )

    # Latency percentiles from the fleet-merged histograms.
    lines.append("")
    for label, name in (
        ("wall  launch", "serve.latency.launch"),
        ("sim   launch", "serve.sim_latency.launch"),
    ):
        q = _hist_quantiles(registry, name)
        if q is None:
            lines.append(f"{label}: (no samples)")
        else:
            lines.append(
                f"{label}: p50 {_fmt_ms(q['p50'])}  p90 {_fmt_ms(q['p90'])}  "
                f"p99 {_fmt_ms(q['p99'])}  p999 {_fmt_ms(q['p999'])}  "
                f"n={q['count']}"
            )

    # SLO burn.
    slo = metrics.get("slo") or {}
    targets = slo.get("targets") or []
    if targets:
        lines.append("")
        lines.append(f"SLO (alerts fired: {slo.get('alerts_fired', 0)})")
        for row in targets:
            burn_text = "  ".join(
                f"{w}:{b:.2f}x"
                for w, b in sorted(
                    row.get("burn", {}).items(),
                    key=lambda kv: float(str(kv[0]).rstrip("s") or 0),
                )
            )
            flag = "BURNING" if row.get("burning") else "ok"
            lines.append(
                f"  {row.get('name', '?'):<18} good {row.get('good_ratio', 1.0):.4f}"
                f"  burn {burn_text or '-'}  [{flag}]"
            )

    # Telemetry health: trace loss and ring evictions should stay 0/known.
    dropped = counters.get("obs.trace.dropped", 0)
    evicted = counters.get("obs.recorder.evicted", 0)
    rejections = counters.get("scheduler.rejections", 0)
    lines.append("")
    lines.append(
        f"telemetry: trace-dropped {dropped} | recorder-evicted {evicted}"
        f" | admission-rejections {rejections}"
        f" | monitor covered_sms {gauges.get('monitor.covered_sms', '-')}"
    )
    return "\n".join(line[:width] for line in lines)


# -- front ends ---------------------------------------------------------------


def run_top(
    socket_path: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    plain: bool = False,
    out=None,
) -> int:
    """Run the dashboard; returns a process exit code.

    ``iterations`` bounds the number of refreshes (CI runs one frame);
    ``None`` polls until interrupted (or ``q`` under curses).
    """
    if plain:
        return _run_plain(socket_path, interval, iterations, out or sys.stdout)
    try:
        import curses  # noqa: F401
    except ImportError:
        return _run_plain(socket_path, interval, iterations, out or sys.stdout)
    return _run_curses(socket_path, interval, iterations)


def _run_plain(socket_path: str, interval: float, iterations, out) -> int:
    count = 0
    rendered_any = False
    try:
        while iterations is None or count < iterations:
            feed = fetch_feed(socket_path)
            rendered_any = rendered_any or feed is not None
            print(render(feed), file=out)
            print("-" * 60, file=out)
            out.flush()
            count += 1
            if iterations is not None and count >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0 if rendered_any else 1


def _run_curses(socket_path: str, interval: float, iterations) -> int:
    import curses

    state = {"ok": False}

    def loop(screen) -> None:
        curses.curs_set(0)
        screen.nodelay(True)
        count = 0
        while iterations is None or count < iterations:
            feed = fetch_feed(socket_path)
            state["ok"] = state["ok"] or feed is not None
            height, width = screen.getmaxyx()
            screen.erase()
            text = render(feed, width=max(20, width - 1))
            for y, line in enumerate(text.splitlines()):
                if y >= height - 1:
                    break
                screen.addnstr(y, 0, line, width - 1)
            screen.addnstr(
                min(height - 1, text.count("\n") + 2),
                0,
                "q to quit",
                width - 1,
            )
            screen.refresh()
            count += 1
            deadline = time.time() + interval
            while time.time() < deadline:
                if screen.getch() in (ord("q"), ord("Q")):
                    return
                time.sleep(0.05)

    try:
        curses.wrapper(loop)
    except KeyboardInterrupt:
        pass
    return 0 if state["ok"] else 1
