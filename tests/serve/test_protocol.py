"""Wire-protocol tests: framing round trips, malformed-frame rejection,
request validation, and the typed-error mapping."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.registry import UnknownKernelError
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    ServerBusyError,
    SessionLimitError,
    UnknownOperationError,
    decode_payload,
    encode_frame,
    error_from_reply,
    error_reply,
    ok_reply,
    request,
    validate_request,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)
messages = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


class TestFraming:
    def test_single_round_trip(self):
        msg = request(1, "launch", kernel="MM", task_size=10)
        decoded = FrameDecoder().feed(encode_frame(msg))
        assert decoded == [msg]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(messages, min_size=1, max_size=4))
    def test_stream_round_trip_identity(self, msgs):
        """encode+concatenate then decode == the original message list."""
        stream = b"".join(encode_frame(m) for m in msgs)
        assert FrameDecoder().feed(stream) == msgs

    @settings(max_examples=50, deadline=None)
    @given(st.lists(messages, min_size=1, max_size=3), st.integers(1, 7))
    def test_arbitrary_chunking(self, msgs, chunk):
        """The decoder reassembles frames no matter how the stream splits."""
        stream = b"".join(encode_frame(m) for m in msgs)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i:i + chunk]))
        assert out == msgs
        assert decoder.buffered == 0

    @pytest.mark.parametrize(
        "msg",
        [
            request(7, "launch", kernel="MM", task_size=10, deadline=None),
            ok_reply(3, {"shards": {"0": {"stats": {"scheduler": [1, 2.5, None]}}}}),
            error_reply("r-1", ServerBusyError("busy", retry_after=0.02)),
            {"name": "tenant ü ☃ 𝄞", "params": {"affinity": "é\n\t\"q\""}},
            {"floats": [0.1, 1 / 3, -0.0, 1e300, 5e-324, float("inf"),
                        float("-inf"), float("nan")]},
        ],
    )
    def test_frames_match_json_dumps_byte_for_byte(self, msg):
        """The shared encoder gives the bytes ``json.dumps`` gives."""
        payload = json.dumps(msg, separators=(",", ":")).encode("utf-8")
        assert encode_frame(msg) == struct.pack("!I", len(payload)) + payload

    def test_partial_frame_is_buffered_not_decoded(self):
        frame = encode_frame({"id": 1, "op": "ping", "params": {}})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.buffered == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [{"id": 1, "op": "ping", "params": {}}]


class TestMalformedFrames:
    def test_zero_length_frame_rejected(self):
        with pytest.raises(FrameError, match="zero-length"):
            FrameDecoder().feed(struct.pack("!I", 0))

    def test_oversize_length_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            FrameDecoder().feed(struct.pack("!I", MAX_FRAME + 1))

    def test_oversize_outbound_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_non_json_payload_rejected(self):
        payload = b"\xff\xfe not json"
        with pytest.raises(FrameError, match="not valid JSON"):
            FrameDecoder().feed(struct.pack("!I", len(payload)) + payload)

    def test_non_object_payload_rejected(self):
        for literal in (b"[1,2]", b'"hi"', b"42", b"null"):
            with pytest.raises(FrameError, match="JSON object"):
                decode_payload(literal)

    def test_decoder_unusable_frames_do_not_leak_messages(self):
        """A good frame followed by garbage yields the good one, then raises."""
        good = encode_frame({"id": 1, "op": "ping", "params": {}})
        decoder = FrameDecoder()
        bad = struct.pack("!I", 3) + b"{{{"
        msgs = decoder.feed(good)
        assert len(msgs) == 1
        with pytest.raises(FrameError):
            decoder.feed(bad)


class TestValidation:
    def test_valid_request(self):
        rid, op, params = validate_request(request(7, "launch", kernel="BS"))
        assert (rid, op, params) == (7, "launch", {"kernel": "BS"})

    def test_string_ids_allowed(self):
        rid, _, _ = validate_request(request("req-1", "ping"))
        assert rid == "req-1"

    @pytest.mark.parametrize(
        "msg",
        [
            {"op": "ping", "params": {}},            # missing id
            {"id": None, "op": "ping"},              # bad id type
            {"id": True, "op": "ping"},              # bool is not an id
            {"id": 1},                               # missing op
            {"id": 1, "op": 42},                     # bad op type
            {"id": 1, "op": "ping", "params": [1]},  # params not an object
        ],
    )
    def test_schema_violations(self, msg):
        with pytest.raises(ProtocolError):
            validate_request(msg)

    def test_unknown_op(self):
        with pytest.raises(UnknownOperationError, match="warp_drive"):
            validate_request(request(1, "warp_drive"))


class TestErrorMapping:
    def test_unknown_kernel_round_trip(self):
        reply = error_reply(3, UnknownKernelError("unknown benchmark 'XX'"))
        assert reply["ok"] is False
        assert reply["error"]["type"] == "UnknownKernel"
        exc = error_from_reply(reply)
        assert isinstance(exc, UnknownKernelError)
        assert "XX" in str(exc)

    def test_backpressure_carries_retry_hint(self):
        reply = error_reply(1, ServerBusyError("full", retry_after=0.25))
        assert reply["error"]["details"]["retry_after"] == 0.25
        exc = error_from_reply(reply)
        assert isinstance(exc, ServerBusyError)
        assert exc.retry_after == 0.25

    def test_every_wire_type_rebuilds_its_class(self):
        for wire_type, cls in protocol.ERROR_TYPES.items():
            reply = {
                "id": 1,
                "ok": False,
                "error": {"type": wire_type, "message": "m"},
            }
            assert type(error_from_reply(reply)) is cls

    def test_unknown_wire_type_degrades_to_server_error(self):
        reply = {"id": 1, "ok": False, "error": {"type": "Exotic", "message": "m"}}
        assert isinstance(error_from_reply(reply), protocol.ServerError)

    def test_uncategorized_exception_maps_to_server_error(self):
        wire_type, message, details = protocol.exception_to_error(RuntimeError("boom"))
        assert wire_type == "ServerError"
        assert message == "boom"

    def test_session_limit_is_distinct_from_server_busy(self):
        busy = error_from_reply(error_reply(1, ServerBusyError("g")))
        limit = error_from_reply(error_reply(1, SessionLimitError("s")))
        assert isinstance(busy, ServerBusyError)
        assert isinstance(limit, SessionLimitError)
        assert not isinstance(busy, SessionLimitError)


class TestReplies:
    def test_ok_reply_shape(self):
        assert ok_reply(9, {"a": 1}) == {"id": 9, "ok": True, "result": {"a": 1}}
        assert ok_reply(9) == {"id": 9, "ok": True, "result": {}}

    def test_version_constant_is_wire_visible(self):
        msg = request(1, "hello", version=PROTOCOL_VERSION)
        assert json.loads(encode_frame(msg)[4:])["params"]["version"] == PROTOCOL_VERSION
