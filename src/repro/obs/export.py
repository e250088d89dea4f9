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
tooling.  An event line is :func:`encode_event`'s record, the same record
the daemon's ``metrics`` op returns in its ``recent`` reply;
:func:`decode_events` turns either back into a sink.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

from repro.obs.trace import ALLOCATION_EVENT, TraceEvent, TraceSink

__all__ = [
    "decode_events",
    "encode_event",
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


def to_chrome_events(source: list[TraceEvent]) -> list[dict]:
    """Convert trace events to Chrome trace-event dicts (microseconds).

    Allocation snapshot events become the per-SM occupancy tracks; every
    other event maps 1:1.  ``tid`` values are kept stable per track row;
    string tids (tenant names) are enumerated into integers with
    ``thread_name`` metadata preserving the label.
    """
    end_time = max((e.ts + e.dur for e in source), default=0.0)

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

    for event in source:
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
    path, sink: TraceSink, newest: Optional[int] = None, **metadata
) -> int:
    """Write the sink's ``newest`` N events (all when ``None``) as Chrome
    trace-event JSON; returns the trace-event count.

    The output metadata is the sink's run metadata, then ``metadata``,
    then ``dropped_events``: the events the sink saw that the file does
    not hold (ring evictions, plus any older than the ``newest`` window),
    so a truncated trace is never mistaken for a complete one.
    """
    events = sink.events(newest)
    chrome = to_chrome_events(events)
    payload = {
        "traceEvents": chrome,
        "displayTimeUnit": "ms",
        "metadata": {
            **sink.metadata, **metadata,
            "dropped_events": sink.pushed - len(events),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(chrome)


def encode_event(event: TraceEvent) -> dict:
    """One event as a JSON-safe record, timestamps in simulated seconds."""
    name, ph, ts, pid, tid, dur, args = event
    record = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid}
    if ph == "X":
        record["dur"] = dur
    if args:
        record["args"] = args
    return record


def decode_events(records: list[dict], metadata: Optional[dict] = None) -> TraceSink:
    """Rebuild a sink from :func:`encode_event` records (a ``recent``
    reply, or the event lines of a JSONL export)."""
    sink = TraceSink(metadata=metadata)
    sink.ring.extend(
        TraceEvent(
            rec.get("name", "?"), rec.get("ph", "i"), rec.get("ts", 0.0),
            rec.get("pid", "?"), rec.get("tid", "?"),
            rec.get("dur", 0.0), rec.get("args"),
        )
        for rec in records
    )
    sink.pushed = len(sink.ring)
    return sink


def write_jsonl(path, sink: TraceSink) -> int:
    """Write the sink as a JSONL stream (see module docstring); event count."""
    events = sink.events()
    with open(path, "w") as fh:
        meta = {
            "type": "meta", "dropped_events": sink.pushed - len(events),
            **sink.metadata,
        }
        fh.write(json.dumps(meta) + "\n")
        for event in events:
            fh.write(json.dumps({"type": "event", **encode_event(event)}) + "\n")
    return len(events)
