"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSONL streams.

Chrome trace-event JSON
-----------------------
:func:`write_chrome_trace` emits the object form of the trace-event format
(``{"traceEvents": [...], "metadata": {...}}``) which loads directly in
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Track layout:

* ``SMs`` process — one thread per streaming multiprocessor; occupancy
  intervals appear as complete (``X``) spans named after the resident
  kernel, synthesized from the scheduler's allocation snapshots.  This is
  the Fig. 1-style per-SM timeline.
* ``tenants`` process — one thread per kernel/tenant with its execution
  spans, plus resize/retreat/preempt instants.
* one process per remaining track group (``scheduler``, ``daemon``,
  ``device``, ``engine``) carrying decision markers, compile spans and
  epoch markers.

Timestamps are converted from simulated seconds to the format's
microseconds.  Process/thread names are declared with ``M`` metadata
events so the UI shows readable labels.

JSONL
-----
:func:`write_jsonl` streams one JSON object per line: a leading
``{"type": "meta", ...}`` record with the run metadata, then one
``{"type": "event", ...}`` record per trace event (timestamps kept in
simulated seconds) — grep/jq-friendly, and loss-free for downstream
tooling.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

from repro.obs.trace import ALLOCATION_EVENT, TraceSink

__all__ = [
    "run_metadata",
    "to_chrome_events",
    "write_chrome_trace",
    "write_jsonl",
]

#: Stable pid assignment per track group: SM timeline first, tenants next,
#: then the control-plane groups.  Unknown groups get pids past these.
_PID_ORDER = ("SMs", "tenants", "scheduler", "daemon", "device", "engine")

_SECONDS_TO_US = 1e6


def _git_revision() -> Optional[str]:
    """Current git revision of the repo this module lives in (or None)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_metadata(seed=None, config=None, **extra) -> dict:
    """Standard run metadata for a trace sink.

    ``config`` may be any hashable-fingerprintable objects (device config,
    cost model, ...) — they are folded through
    :func:`repro.config.fingerprint` so two traces from the same
    configuration carry the same fingerprint.  Unknown keyword arguments
    pass straight through.
    """
    meta = {
        "tool": "repro-obs",
        "python": sys.version.split()[0],
        "git_rev": _git_revision(),
    }
    if seed is not None:
        meta["seed"] = seed
    if config is not None:
        from repro.config import fingerprint

        parts = config if isinstance(config, (tuple, list)) else (config,)
        meta["config_fingerprint"] = fingerprint(*parts)
    meta.update(extra)
    return meta


def _sm_track_events(
    allocations: list[tuple[float, dict]],
    end_time: float,
    pid: int,
) -> list[dict]:
    """Synthesize per-SM occupancy spans from allocation snapshots.

    Each snapshot maps kernel -> inclusive ``(sm_low, sm_high)``; for every
    SM we build maximal intervals of constant occupancy and emit one ``X``
    span per interval, named after the resident kernel.
    """
    events: list[dict] = []
    if not allocations:
        return events
    num_sms = 0
    for _ts, snapshot in allocations:
        for _name, (_low, high) in snapshot.items():
            num_sms = max(num_sms, high + 1)
    # Per-SM open interval: (start, kernel name) or None while idle.
    open_span: dict[int, Optional[tuple[float, str]]] = dict.fromkeys(range(num_sms))

    def close(sm: int, until: float) -> None:
        span = open_span[sm]
        if span is None:
            return
        start, kernel = span
        open_span[sm] = None
        if until <= start:
            return
        events.append(
            {
                "name": kernel,
                "cat": "sm",
                "ph": "X",
                "ts": start * _SECONDS_TO_US,
                "dur": (until - start) * _SECONDS_TO_US,
                "pid": pid,
                "tid": sm,
                "args": {"kernel": kernel},
            }
        )

    for ts, snapshot in allocations:
        occupant: dict[int, str] = {}
        for name, (low, high) in snapshot.items():
            for sm in range(low, high + 1):
                occupant[sm] = name
        for sm in range(num_sms):
            now_on = occupant.get(sm)
            open_on = open_span[sm][1] if open_span[sm] else None
            if now_on != open_on:
                close(sm, ts)
                if now_on is not None:
                    open_span[sm] = (ts, now_on)
    for sm in range(num_sms):
        close(sm, max(end_time, allocations[-1][0]))

    for sm in range(num_sms):
        events.append(_thread_name(pid, sm, f"SM {sm:02d}"))
    return events


def _process_name(pid: int, name: str) -> dict:
    return {
        "name": "process_name", "ph": "M", "ts": 0,
        "pid": pid, "tid": 0, "args": {"name": name},
    }


def _thread_name(pid: int, tid, name: str) -> dict:
    return {
        "name": "thread_name", "ph": "M", "ts": 0,
        "pid": pid, "tid": tid, "args": {"name": str(name)},
    }


def to_chrome_events(sink: TraceSink, end_time: Optional[float] = None) -> list[dict]:
    """Convert a sink's events to Chrome trace-event dicts (microseconds).

    Allocation snapshot events become the per-SM occupancy tracks; every
    other event maps 1:1.  ``tid`` values are kept stable per track row;
    string tids (tenant names) are enumerated into integers with
    ``thread_name`` metadata preserving the label.
    """
    if end_time is None:
        end_time = sink.end_time()

    pids: dict[str, int] = {}
    events: list[dict] = []
    allocations: list[tuple[float, dict]] = []
    # (pid, tid label) -> integer tid.
    tids: dict[tuple[int, object], int] = {}

    def pid_of(group: str) -> int:
        if group not in pids:
            if group in _PID_ORDER:
                pids[group] = _PID_ORDER.index(group) + 1
            else:
                pids[group] = len(_PID_ORDER) + 1 + sum(
                    g not in _PID_ORDER for g in pids
                )
            events.append(_process_name(pids[group], group))
        return pids[group]

    def tid_of(pid: int, label) -> int:
        if isinstance(label, int):
            return label
        key = (pid, label)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
            events.append(_thread_name(pid, tids[key], label))
        return tids[key]

    for event in sink.events:
        if event.name == ALLOCATION_EVENT and event.args:
            allocations.append((event.ts, event.args["allocation"]))
            continue
        pid = pid_of(event.pid)
        record = {
            "name": event.name,
            "cat": event.pid,
            "ph": event.ph,
            "ts": event.ts * _SECONDS_TO_US,
            "pid": pid,
            "tid": tid_of(pid, event.tid),
        }
        if event.ph == "X":
            record["dur"] = event.dur * _SECONDS_TO_US
        if event.ph == "i":
            record["s"] = "t"  # instant scope: thread
        if event.args:
            record["args"] = dict(event.args)
        events.append(record)

    if allocations:
        sm_pid = pid_of("SMs")
        events.extend(_sm_track_events(allocations, end_time, sm_pid))

    events.sort(key=lambda e: (e["ph"] != "M", e["ts"]))
    return events


def write_chrome_trace(
    path, sink: TraceSink, end_time: Optional[float] = None
) -> int:
    """Write the sink as Chrome trace-event JSON; returns the event count.

    The output object form carries the sink's run metadata and the
    ``dropped`` count (so a truncated trace is never mistaken for a
    complete one).
    """
    events = to_chrome_events(sink, end_time)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {**sink.metadata, "dropped_events": sink.dropped},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(events)


def write_jsonl(path, sink: TraceSink) -> int:
    """Write the sink as a JSONL stream (see module docstring); event count."""
    n = 0
    with open(path, "w") as fh:
        meta = {"type": "meta", "dropped_events": sink.dropped, **sink.metadata}
        fh.write(json.dumps(meta) + "\n")
        for event in sink.events:
            record = {
                "type": "event",
                "name": event.name,
                "ph": event.ph,
                "ts": event.ts,
                "pid": event.pid,
                "tid": event.tid,
            }
            if event.ph == "X":
                record["dur"] = event.dur
            if event.args:
                record["args"] = event.args
            fh.write(json.dumps(record) + "\n")
            n += 1
    return n
