"""Wire protocol for the Slate serving daemon: framing, schemas, errors.

Frame format
------------
Every message is one *frame*: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON encoding a single object.  Frames larger
than :data:`MAX_FRAME` (or empty) are a protocol violation — the receiver
raises :class:`FrameError` and drops the connection, mirroring the paper's
named-pipe command channel where a torn write is unrecoverable.

Message schemas
---------------
Requests and replies are JSON objects::

    request:  {"id": <int|str>, "op": <str>, "params": {...}}
    reply:    {"id": ..., "ok": true,  "result": {...}}
    error:    {"id": ..., "ok": false,
               "error": {"type": <str>, "message": <str>, "details": {...}}}

``id`` is chosen by the client and echoed verbatim so a client can match
replies to requests.  ``op`` is one of :data:`OPS`.  The ``hello`` request
carries ``{"version": PROTOCOL_VERSION}``; the server rejects any other
version with a ``VersionMismatch`` error, which is what lets the format
evolve without silent misdecodes.

Version 2 (sharded serving)
---------------------------
Version 2 adds the multi-shard vocabulary:

* ``hello`` params gain optional routing hints: ``affinity`` (an opaque
  string key — sessions sharing a key land on the same shard) and
  ``shard`` (an explicit shard pin, validated server-side).
* ``hello`` results gain ``shard`` (the placement decision).
* ``stats`` no longer requires a session (any monitor polls load without
  opening one); the reply's ``session`` field is ``null`` on a
  session-less stats call.
* A new typed backpressure error, ``ShardDraining``, reports placement
  against a draining shard.
* ``metrics`` — a session-less telemetry scrape on the same channel as
  the session-less ``stats``.  The reply carries the daemon's full
  ``MetricsRegistry.export_state()`` (mergeable log-bucket histograms
  included), its wall and simulation clocks, and the per-shard fleet
  view with sim-clock skew.  Optional params: ``recent: N`` asks for the
  last N flight-recorder events (trimmed server-side to fit
  :data:`MAX_FRAME`).

Typed errors
------------
Server-side failures travel as structured error replies, never as closed
connections or tracebacks.  :func:`exception_to_error` maps an exception to
its wire ``type``; :func:`error_from_reply` rebuilds the matching exception
class client-side (:data:`ERROR_TYPES`), so ``except UnknownKernelError``
works identically in-process and across the socket.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from repro.kernels.registry import UnknownKernelError
from repro.slate.policy import AdmissionRejected

__all__ = [
    "AdmissionRejected",
    "ERROR_TYPES",
    "MAX_FRAME",
    "OPS",
    "PROTOCOL_VERSION",
    "BackpressureError",
    "FrameDecoder",
    "FrameError",
    "ProtocolError",
    "ServerBusyError",
    "ServerError",
    "SessionLimitError",
    "ShardDrainingError",
    "SessionStateError",
    "UnknownKernelError",
    "UnknownOperationError",
    "VersionMismatchError",
    "decode_payload",
    "encode_frame",
    "error_from_reply",
    "error_reply",
    "exception_to_error",
    "MessageStream",
    "ok_reply",
    "request",
    "validate_request",
]

#: Bump on any incompatible change to the frame format or message schemas;
#: ``hello`` accepts exactly this version.  v2: shard ids, routing hints
#: (``affinity``/``shard``), session-less ``stats`` and ``metrics`` — see
#: "Version 2" above.
PROTOCOL_VERSION = 2

#: Upper bound on a single frame's payload (1 MiB).  Commands are small;
#: anything bigger is a corrupt or hostile length prefix.
MAX_FRAME = 1 << 20

#: Operations the daemon understands (see ``docs/serving.md``).
OPS = frozenset(
    {"hello", "register", "launch", "sync", "stats", "metrics", "ping", "bye"}
)

_LEN = struct.Struct("!I")


# -- typed errors ------------------------------------------------------------


class ProtocolError(Exception):
    """A message violated the wire protocol."""

    wire_type = "ProtocolError"


class FrameError(ProtocolError):
    """A frame could not be decoded (bad length, bad JSON, not an object)."""

    wire_type = "FrameError"


class VersionMismatchError(ProtocolError):
    """Client and server disagree on :data:`PROTOCOL_VERSION`."""

    wire_type = "VersionMismatch"


class UnknownOperationError(ProtocolError):
    """Request named an ``op`` outside :data:`OPS`."""

    wire_type = "UnknownOperation"


class SessionStateError(ProtocolError):
    """Operation is invalid in the session's current state (e.g. before
    ``hello``, or a second ``hello`` on an open session)."""

    wire_type = "SessionState"


class BackpressureError(Exception):
    """Base for admission-control rejections; carries a retry hint."""

    wire_type = "Backpressure"

    def __init__(self, message: str, retry_after: float = 0.01) -> None:
        super().__init__(message)
        #: Suggested client backoff in seconds before retrying.
        self.retry_after = retry_after


class ServerBusyError(BackpressureError):
    """Global in-flight bound reached — the daemon sheds load."""

    wire_type = "ServerBusy"


class SessionLimitError(BackpressureError):
    """Per-session in-flight bound reached — one client is hogging."""

    wire_type = "SessionLimit"


class ShardDrainingError(BackpressureError):
    """Placement targeted a draining shard (explicit pin or affinity to a
    shard being stopped); retry places elsewhere."""

    wire_type = "ShardDraining"


class ServerError(Exception):
    """Uncategorized server-side failure relayed over the wire."""

    wire_type = "ServerError"


#: wire ``type`` -> exception class raised client-side.
ERROR_TYPES: dict[str, type] = {
    "ProtocolError": ProtocolError,
    "FrameError": FrameError,
    "VersionMismatch": VersionMismatchError,
    "UnknownOperation": UnknownOperationError,
    "SessionState": SessionStateError,
    "Backpressure": BackpressureError,
    "ServerBusy": ServerBusyError,
    "SessionLimit": SessionLimitError,
    "ShardDraining": ShardDrainingError,
    "UnknownKernel": UnknownKernelError,
    "AdmissionRejected": AdmissionRejected,
    "ServerError": ServerError,
}


def exception_to_error(exc: BaseException) -> tuple[str, str, dict]:
    """Map an exception to its ``(type, message, details)`` wire triple."""
    if isinstance(exc, UnknownKernelError):
        # KeyError reprs its arg; use the bare message.
        return "UnknownKernel", str(exc.args[0] if exc.args else exc), {}
    if isinstance(exc, AdmissionRejected):
        return "AdmissionRejected", exc.reason, {}
    details: dict = {}
    if isinstance(exc, BackpressureError):
        details["retry_after"] = exc.retry_after
    wire_type = getattr(type(exc), "wire_type", "ServerError")
    if wire_type not in ERROR_TYPES:
        wire_type = "ServerError"
    return wire_type, str(exc), details


def error_from_reply(reply: dict) -> Exception:
    """Rebuild the typed exception an error reply describes."""
    err = reply.get("error") or {}
    wire_type = err.get("type", "ServerError")
    message = err.get("message", "unknown server error")
    details = err.get("details") or {}
    cls = ERROR_TYPES.get(wire_type, ServerError)
    if issubclass(cls, BackpressureError):
        return cls(message, retry_after=float(details.get("retry_after", 0.01)))
    return cls(message)


# -- framing -----------------------------------------------------------------


def encode_frame(msg: dict) -> bytes:
    """Serialize one message to its wire frame."""
    payload = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Decode one frame payload; raises :class:`FrameError` when malformed."""
    try:
        msg = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(msg).__name__}"
        )
    return msg


class FrameDecoder:
    """Incremental frame decoder: feed bytes in, get complete messages out.

    Byte-stream transports (sockets) deliver arbitrary chunks; the decoder
    buffers partial frames across :meth:`feed` calls and yields each message
    exactly once, regardless of how the stream was split.
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every message completed by it."""
        self._buf += data
        messages: list[dict] = []
        while True:
            if len(self._buf) < _LEN.size:
                return messages
            (length,) = _LEN.unpack_from(self._buf)
            if length == 0:
                raise FrameError("zero-length frame")
            if length > self.max_frame:
                raise FrameError(f"frame length {length} exceeds {self.max_frame}")
            end = _LEN.size + length
            if len(self._buf) < end:
                return messages
            payload = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            messages.append(decode_payload(payload))

    @property
    def buffered(self) -> int:
        """Bytes held for an incomplete frame."""
        return len(self._buf)


# -- message constructors & validation ---------------------------------------


def request(rid: "int | str", op: str, **params: Any) -> dict:
    """Build a request message."""
    return {"id": rid, "op": op, "params": params}


def ok_reply(rid: "int | str | None", result: Optional[dict] = None) -> dict:
    """Build a success reply."""
    return {"id": rid, "ok": True, "result": result or {}}


def error_reply(rid: "int | str | None", exc: BaseException) -> dict:
    """Build a structured error reply from an exception."""
    wire_type, message, details = exception_to_error(exc)
    error = {"type": wire_type, "message": message}
    if details:
        error["details"] = details
    return {"id": rid, "ok": False, "error": error}


def validate_request(msg: dict) -> tuple["int | str", str, dict]:
    """Check a decoded message against the request schema.

    Returns ``(id, op, params)``.  Raises :class:`ProtocolError` (or the
    :class:`UnknownOperationError` subtype) on violations; the caller still
    has ``msg.get("id")`` for addressing the error reply.
    """
    rid = msg.get("id")
    if not isinstance(rid, (int, str)) or isinstance(rid, bool):
        raise ProtocolError(f"request id must be an int or string, got {rid!r}")
    op = msg.get("op")
    if not isinstance(op, str):
        raise ProtocolError(f"request op must be a string, got {op!r}")
    if op not in OPS:
        raise UnknownOperationError(
            f"unknown op {op!r}; known: {', '.join(sorted(OPS))}"
        )
    params = msg.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"request params must be an object, got {params!r}")
    return rid, op, params


# -- synchronous socket helpers (client side) --------------------------------


class MessageStream:
    """Framed messages over a blocking socket (the sync client transport)."""

    def __init__(self, sock: socket.socket, max_frame: int = MAX_FRAME) -> None:
        self.sock = sock
        self._decoder = FrameDecoder(max_frame)
        self._pending: list[dict] = []

    def send(self, msg: dict) -> None:
        """Send one framed message."""
        self.sock.sendall(encode_frame(msg))

    def recv(self) -> dict:
        """Receive the next message.

        Raises :class:`ConnectionError` on EOF and :class:`FrameError` on a
        malformed stream; ``socket.timeout`` propagates from the socket.
        """
        while not self._pending:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.pop(0)
