"""The OS-level serving layer: a real Slate daemon over Unix sockets.

The in-simulator daemon (:mod:`repro.slate.daemon`) *models* the paper's
client-server runtime inside one process; this package makes the process
boundary real.  ``repro serve`` runs an asyncio daemon that listens on a
Unix domain socket; plain client processes link :class:`SlateClient` (the
analogue of the Slate API library) and relay every operation over a
length-prefixed JSON wire protocol into a shard's
:class:`~repro.slate.daemon.SlateRuntime`, which drives the simulated GPU.

Layout
------
:mod:`repro.serve.protocol`
    Frame format, message schemas, versioning, and the typed wire errors.
:mod:`repro.serve.server`
    The daemon: connection handling, per-connection sessions, admission
    control with backpressure replies, the sim driver, graceful shutdown.
:mod:`repro.serve.client`
    Synchronous client library (connect/retry/timeout) for plain Python
    processes.
:mod:`repro.serve.loadgen`
    Multi-process open- and closed-loop load generator with seeded
    workload mixes.

See ``docs/serving.md`` for the architecture and protocol reference.
"""

from repro.serve.client import LaunchReply, SlateClient
from repro.serve.loadgen import LoadGenConfig, LoadGenReport, run_loadgen
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    ProtocolError,
    ServerBusyError,
    SessionLimitError,
    UnknownKernelError,
)
from repro.serve.server import ServeConfig, ServerThread, SlateServer

__all__ = [
    "PROTOCOL_VERSION",
    "FrameError",
    "LaunchReply",
    "LoadGenConfig",
    "LoadGenReport",
    "ProtocolError",
    "ServeConfig",
    "ServerBusyError",
    "ServerThread",
    "SessionLimitError",
    "SlateClient",
    "SlateServer",
    "UnknownKernelError",
    "run_loadgen",
]
