"""Client-daemon communication channels (§IV-A1).

Slate uses a *type-based communication strategy*: a named pipe carries API
commands (small, latency-sensitive), and shared buffers carry kernel IO data
(bytes to gigabytes) without extra copies.  Each channel charges its own
cost and keeps counters for the overhead breakdown of Fig. 6.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.obs.registry import registry as obs_registry
from repro.sim import Environment, Timeout

__all__ = ["NamedPipe", "SharedBufferChannel"]


class NamedPipe:
    """Command channel: one round trip per API call.

    Per-instance counters (``round_trips``/``total_time``) carry the Fig. 6
    per-session breakdown; the same increments are mirrored process-wide
    through :func:`repro.obs.registry.registry` as ``ipc.pipe.*`` so the
    channels show up in ``repro obs dump`` like every other subsystem.
    """

    def __init__(self, env: Environment, costs: CostModel) -> None:
        self.env = env
        self.costs = costs
        self.round_trips = 0
        self.total_time = 0.0
        reg = obs_registry()
        self._m_round_trips = reg.counter("ipc.pipe.round_trips")
        self._m_time = reg.gauge("ipc.pipe.time_total")

    def command(self) -> Timeout:
        """One command round trip: returns the timeout to ``yield``."""
        self.round_trips += 1
        self.total_time += self.costs.pipe_roundtrip
        self._m_round_trips.inc()
        self._m_time.inc(self.costs.pipe_roundtrip)
        return self.env.timeout(self.costs.pipe_roundtrip)


class SharedBufferChannel:
    """Bulk-data channel: shared memory mapping, no payload copy.

    The daemon maps a buffer shared with the client and records the
    (client address -> GPU pointer) association in its hash table; only the
    fixed mapping/bookkeeping cost is charged regardless of payload size —
    "this channel avoids extra memory footprint and data copy" (§IV-A1).
    """

    def __init__(self, env: Environment, costs: CostModel) -> None:
        self.env = env
        self.costs = costs
        self.handoffs = 0
        self.bytes_handled = 0.0
        self.total_time = 0.0
        reg = obs_registry()
        self._m_handoffs = reg.counter("ipc.shared_buffer.mappings")
        self._m_bytes = reg.gauge("ipc.shared_buffer.bytes_total")
        self._m_time = reg.gauge("ipc.shared_buffer.time_total")

    def handoff(self, nbytes: float) -> Timeout:
        """Map/bookkeep one buffer of ``nbytes``: returns the timeout to
        ``yield``.  A negative size raises here, at the call."""
        if nbytes < 0:
            raise ValueError(f"negative buffer size {nbytes}")
        self.handoffs += 1
        self.bytes_handled += nbytes
        self.total_time += self.costs.shared_buffer_overhead
        self._m_handoffs.inc()
        self._m_bytes.inc(nbytes)
        self._m_time.inc(self.costs.shared_buffer_overhead)
        return self.env.timeout(self.costs.shared_buffer_overhead)
