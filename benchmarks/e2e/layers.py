"""Per-layer spans for the traced benchmark run.

The wrappers here patch the public callables of each layer at their lookup
site and restore them on exit.  A function imported into another module by
name (``derive_rates`` in :mod:`repro.gpu.device`, ``offline_profile`` in
:mod:`repro.slate.daemon`, ...) is patched in every loaded ``repro`` module
that binds it, so the call sites the program actually uses see the wrapper.
A method is patched on its class.

Every call becomes a span (name, start, end, parent).  A layer's self time
is its spans' time minus the time of the spans they contain, so the self
times of one thread add up exactly to its outermost spans.  Generator APIs
(the Slate session calls a tenant ``yield from``\\ s) are timed per
resumption through a proxy generator: the simulated waits between
resumptions belong to whoever resumes them, not to the API.

Spans are kept in memory (the first ``KEEP_SPANS`` of them, for the Chrome
trace); counts and self times are accumulated for every span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

__all__ = [
    "CLIENT_SITES",
    "ENGINE_SITES",
    "POLICY_HOOKS",
    "SERVER_SITES",
    "Tracer",
    "chrome_trace",
    "install",
]

_now = time.perf_counter_ns
#: Spans kept per process for the Chrome trace.
KEEP_SPANS = 50_000

#: (layer, "module:Class.attr" or "module:function", kind) — the calls the
#: simulation stack is entered through.  ``gen`` marks generator APIs.
ENGINE_SITES = (
    ("sim", "repro.sim.engine:Environment.run", "call"),
    ("sim", "repro.sim.engine:Environment.step", "call"),
    ("scheduler.submit", "repro.slate.scheduler:SlateScheduler.submit", "call"),
    ("device.launch", "repro.gpu.device:SimulatedGPU.launch", "call"),
    ("device.launch", "repro.gpu.device:SimulatedGPU.launch_sliced", "call"),
    ("device.resize", "repro.gpu.device:SimulatedGPU.resize", "call"),
    ("device.pause_resume", "repro.gpu.device:SimulatedGPU.pause", "call"),
    ("device.pause_resume", "repro.gpu.device:SimulatedGPU.resume", "call"),
    ("rates.derive", "repro.gpu.rates:derive_rates", "call"),
    ("api", "repro.slate.daemon:SlateSession.malloc", "gen"),
    ("api", "repro.slate.daemon:SlateSession.free", "gen"),
    ("api", "repro.slate.daemon:SlateSession.memcpy_h2d", "gen"),
    ("api", "repro.slate.daemon:SlateSession.memcpy_d2h", "gen"),
    ("api", "repro.slate.daemon:SlateSession.launch", "gen"),
    ("api", "repro.slate.daemon:SlateSession.synchronize", "gen"),
    ("profiler.offline_profile", "repro.slate.profiler:offline_profile", "call"),
    ("detailed", "repro.gpu.detailed:run_detailed", "call"),
    ("detailed", "repro.gpu.detailed:run_detailed_corun", "call"),
    ("detailed", "repro.gpu.detailed:run_detailed_sliced", "call"),
    ("cache.get", "repro.cache:JsonCache.get", "call"),
    ("cache.put", "repro.cache:JsonCache.put", "call"),
)

#: The daemon's request path: wire framing, request validation, placement.
SERVER_SITES = (
    ("server.frame", "repro.serve.protocol:encode_frame", "call"),
    ("server.frame", "repro.serve.protocol:FrameDecoder.feed", "call"),
    ("server.frame", "repro.serve.protocol:validate_request", "call"),
    ("server.router.pick", "repro.serve.router:PlacementRouter.pick", "call"),
)

#: The client side of the wire (blocking socket transport).
CLIENT_SITES = (
    ("client.send", "repro.serve.protocol:MessageStream.send", "call"),
    ("client.recv", "repro.serve.protocol:MessageStream.recv", "call"),
)

#: Policy hooks the scheduler consults; patched on every policy class
#: that defines them (subclasses included), all under the layer "policy".
POLICY_HOOKS = (
    "queue_key",
    "admit",
    "may_corun",
    "split_pair",
    "nway_shares",
    "preempt_victim",
    "slice_quota",
    "preempt_at_slice",
    "on_complete",
    "reconsider",
    "placement_compatible",
    "placement_score",
)


class _ThreadState:
    """One thread's open spans and accumulated totals."""

    __slots__ = ("tid", "stack", "calls", "self_ns", "roots_ns", "spans")

    def __init__(self, tid: int, spans: list) -> None:
        self.tid = tid
        self.stack: list = []  # [name, start_ns, child_ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.roots_ns = 0
        self.spans = spans

    def enter(self, name: str) -> None:
        self.stack.append([name, _now(), 0])

    def exit(self) -> None:
        end = _now()
        name, start, child = self.stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        stack = self.stack
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][0]
        else:
            self.roots_ns += dur
            parent = None
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, parent, self.tid))


class Tracer:
    """Span recorder shared by the wrappers of one process.

    Each thread records into its own :class:`_ThreadState`, so threads
    never contend; :meth:`summary` merges them.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._states), self.spans)
                self._states.append(st)
            self._local.state = st
            return st

    @contextlib.contextmanager
    def span(self, name: str):
        st = self.state()
        st.enter(name)
        try:
            yield
        finally:
            st.exit()

    def summary(self) -> dict:
        """Merged per-layer calls and self time (ns) over every thread.

        ``roots_ns`` is the summed duration of every thread's outermost
        spans — what the self times must add up to — and ``open`` counts
        spans never closed (a wrapper that lost its exit).
        """
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for st in self._states:
            for name, n in st.calls.items():
                calls[name] = calls.get(name, 0) + n
            for name, ns in st.self_ns.items():
                self_ns[name] = self_ns.get(name, 0) + ns
        return {
            "calls": calls,
            "self_ns": self_ns,
            "roots_ns": sum(st.roots_ns for st in self._states),
            "open": sum(len(st.stack) for st in self._states),
            "spans_kept": len(self.spans),
            "spans_dropped": max(0, sum(calls.values()) - len(self.spans)),
        }


def _traced_call(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        st = tracer.state()
        st.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            st.exit()

    return traced


def _proxy(st: _ThreadState, name: str, gen):
    """Delegate to ``gen`` like ``yield from``, timing each resumption."""
    value = exc = None
    while True:
        st.enter(name)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            st.exit()
        value = exc = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # forwarded into gen, like yield from
            exc = err


def _traced_gen(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _proxy(tracer.state(), name, fn(*args, **kwargs))

    return traced


def _resolve(target: str):
    """``module:Class.attr`` -> (class, attr); ``module:fn`` -> (module, fn)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name), attr
    return module, path


def _lookup_sites(module, attr: str):
    """Every loaded ``repro`` module binding the same object as ``module.attr``."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            mod, attr, None
        ) is original:
            yield mod


@contextlib.contextmanager
def install(tracer: Tracer, sites, policy: bool = True):
    """Patch ``sites`` (and the policy hooks) for the ``with`` body.

    Import every module whose names are re-bound elsewhere *before*
    entering, so every lookup site already exists when it is patched.
    """
    undo: list = []

    def patch(owner, attr: str, wrapper) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    try:
        for name, target, kind in sites:
            owner, attr = _resolve(target)
            wrap = _traced_gen if kind == "gen" else _traced_call
            if isinstance(owner, type):
                patch(owner, attr, wrap(tracer, name, getattr(owner, attr)))
                continue
            wrapper = wrap(tracer, name, getattr(owner, attr))
            for module in _lookup_sites(owner, attr):
                patch(module, attr, wrapper)
        if policy:
            from repro.slate.policy import SchedulingPolicy

            classes, pending = set(), [SchedulingPolicy]
            while pending:
                cls = pending.pop()
                if cls in classes:
                    continue
                classes.add(cls)
                pending.extend(cls.__subclasses__())
                for hook in POLICY_HOOKS:
                    if hook in cls.__dict__:
                        patch(cls, hook, _traced_call(tracer, "policy", cls.__dict__[hook]))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def chrome_trace(processes: dict[str, list]) -> dict:
    """Chrome trace-event JSON for kept spans, one process per role."""
    events = []
    for pid, (role, spans) in enumerate(sorted(processes.items()), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": role}}
        )
        for name, start, end, parent, tid in spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": {"parent": parent},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
