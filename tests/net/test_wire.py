"""Frame codec and typed-envelope round trips.

The wire layer's contract is losslessness: every typed error and every
response class must cross a frame encode/decode cycle bit-for-bit, and
every malformed byte stream must surface as a typed
:class:`~repro.net.wire.WireProtocolError` -- never a crash, never a
partial decode.
"""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    ConnectionLostError,
    FrameCorruptError,
    FrameDecoder,
    FrameTimeoutError,
    FrameTooLargeError,
    HandshakeError,
    WireProtocolError,
    decode_error,
    decode_response,
    encode_error,
    encode_frame,
    encode_response,
    error_message,
    hello_message,
    request_message,
)
from repro.service.errors import (
    AdmissionRejectedError,
    AllShardsUnavailableError,
    CalibrationDriftError,
    CircuitOpenError,
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
    QuotaExceededError,
    ReplicaDivergenceError,
    RetryBudgetExhaustedError,
    ServiceError,
    ShardBusyError,
    ShardTimeoutError,
    TransientServiceError,
)
from repro.service.response import ServiceResponse

_HEADER = struct.Struct("!4sII")


def _frame_round_trip(message):
    decoder = FrameDecoder()
    messages = decoder.feed(encode_frame(message))
    assert len(messages) == 1
    return messages[0]


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_single_message_round_trip(self):
        message = hello_message()
        assert _frame_round_trip(message) == message

    def test_many_messages_one_buffer(self):
        msgs = [
            hello_message(),
            request_message(1, "search", [0, 1, 2], budget_s=0.05),
            error_message(2, DeadlineExceededError("late")),
        ]
        stream = b"".join(encode_frame(m) for m in msgs)
        decoder = FrameDecoder()
        assert decoder.feed(stream) == msgs

    def test_byte_at_a_time_feed(self):
        message = request_message(
            7, "topk", list(range(16)), budget_s=0.125, tenant="t1", k=3
        )
        stream = encode_frame(message)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == [message]
        assert decoder.pending_bytes == 0

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 64}, max_frame_bytes=32)

    def test_declared_length_above_cap_is_typed(self):
        header = _HEADER.pack(b"TDAM", DEFAULT_MAX_FRAME_BYTES + 1, 0)
        with pytest.raises(FrameTooLargeError):
            FrameDecoder().feed(header)

    def test_bad_magic_is_typed(self):
        frame = bytearray(encode_frame(hello_message()))
        frame[:4] = b"XXXX"
        with pytest.raises(FrameCorruptError):
            FrameDecoder().feed(bytes(frame))

    def test_checksum_mismatch_is_typed(self):
        frame = bytearray(encode_frame(hello_message()))
        frame[HEADER_BYTES] ^= 0x01  # flip one payload bit
        with pytest.raises(FrameCorruptError):
            FrameDecoder().feed(bytes(frame))

    def test_invalid_json_is_typed(self):
        payload = b"{not json"
        frame = _HEADER.pack(
            b"TDAM", len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(FrameCorruptError):
            FrameDecoder().feed(frame)

    def test_non_object_payload_is_typed(self):
        payload = b"[1,2,3]"
        frame = _HEADER.pack(
            b"TDAM", len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(FrameCorruptError):
            FrameDecoder().feed(frame)

    def test_decoder_dead_after_framing_error(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameCorruptError):
            decoder.feed(b"XXXX" + b"\x00" * 8)
        # No resync on a corrupted stream: even valid frames are
        # refused until the connection is dropped.
        with pytest.raises(FrameCorruptError):
            decoder.feed(encode_frame(hello_message()))

    def test_eof_mid_frame_is_truncation(self):
        stream = encode_frame(hello_message())
        decoder = FrameDecoder()
        decoder.feed(stream[: len(stream) - 3])
        with pytest.raises(ConnectionLostError):
            decoder.eof()

    def test_eof_on_frame_boundary_is_clean(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(hello_message()))
        decoder.eof()  # no pending bytes: clean close


# ----------------------------------------------------------------------
# Typed-error envelope: every class, bit-for-bit (satellite)
# ----------------------------------------------------------------------
_ERROR_CASES = [
    QuotaExceededError("quota dry", retry_after_s=0.125, tenant="t3"),
    OverloadError(
        "queue full", retry_after_s=0.002, reason="queue_full",
        tenant="t1",
    ),
    OverloadError(
        "draining", retry_after_s=0.0, reason="draining", tenant="t0",
    ),
    AdmissionRejectedError(
        "shed", retry_after_s=0.25, reason="queue_deadline",
        tenant="t2",
    ),
    InvalidRequestError("bad shape (2, 2)"),
    DeadlineExceededError("budget exhausted after 3 attempts"),
    AllShardsUnavailableError("all replicas down"),
    RetryBudgetExhaustedError("budget empty"),
    CircuitOpenError("breaker open on s1"),
    ReplicaDivergenceError(
        "write fanout failed",
        shards_written=["s0"],
        shards_unwritten=["s1", "s2"],
        failed_shard="s1",
    ),
    ShardTimeoutError("s0 slow"),
    ShardBusyError("s1 mid-refresh"),
    CalibrationDriftError("replica TDC drifted"),
    TransientServiceError("blip"),
    FrameTooLargeError("5 MiB declared"),
    FrameCorruptError("checksum mismatch"),
    FrameTimeoutError("no frame in 30s"),
    ConnectionLostError("peer reset"),
    HandshakeError("version 2 vs 1"),
    WireProtocolError("generic wire failure"),
    ServiceError("generic service failure"),
]


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc", _ERROR_CASES, ids=lambda e: type(e).__name__
    )
    def test_round_trip_exact(self, exc):
        message = _frame_round_trip(error_message(11, exc))
        assert message["type"] == "error"
        assert message["id"] == 11
        decoded = decode_error(message)
        assert type(decoded) is type(exc)
        assert str(decoded) == str(exc)

    @pytest.mark.parametrize(
        "exc",
        [e for e in _ERROR_CASES
         if isinstance(e, AdmissionRejectedError)],
        ids=lambda e: f"{type(e).__name__}-{e.reason}",
    )
    def test_admission_metadata_survives(self, exc):
        decoded = decode_error(_frame_round_trip(error_message(1, exc)))
        assert decoded.retry_after_s == exc.retry_after_s
        assert decoded.reason == exc.reason
        assert decoded.tenant == exc.tenant

    def test_divergence_shard_lists_survive(self):
        exc = next(
            e for e in _ERROR_CASES
            if isinstance(e, ReplicaDivergenceError)
        )
        decoded = decode_error(_frame_round_trip(error_message(1, exc)))
        assert decoded.shards_written == exc.shards_written
        assert decoded.shards_unwritten == exc.shards_unwritten
        assert decoded.failed_shard == exc.failed_shard

    def test_unknown_code_decodes_to_service_error(self):
        decoded = decode_error(
            {"code": "from_the_future", "message": "???"}
        )
        assert type(decoded) is ServiceError
        assert str(decoded) == "???"

    def test_unnamed_exception_encodes_as_internal(self):
        envelope = encode_error(RuntimeError("surprise"))
        assert envelope["code"] == "internal"
        decoded = decode_error(envelope)
        assert type(decoded) is ServiceError


# ----------------------------------------------------------------------
# Response payloads: full honesty metadata, bit-for-bit (satellite)
# ----------------------------------------------------------------------
_SEARCH_CASES = [
    ServiceResponse(
        best_row=3, best_distance=7.0, degraded=False,
        coverage=1.0, partitions_skipped=(), shard_id="s0",
        attempts=1, retries=0, elapsed_s=0.0031,
    ),
    ServiceResponse(
        best_row=0, best_distance=2.0, degraded=True,
        coverage=0.5,
        partitions_skipped=("p1", "p3"), shard_id="s1",
        attempts=3, retries=2, elapsed_s=0.0482,
    ),
    ServiceResponse(
        best_row=-1, best_distance=-1.0, degraded=True,
        coverage=0.0,
        partitions_skipped=("p0", "p1"), shard_id="",
        attempts=2, retries=1, elapsed_s=0.05,
    ),
]

_TOPK_CASES = [
    ServiceResponse(
        rows=np.asarray([4, 1, 7], dtype=np.int64),
        degraded=False, coverage=1.0,
        partitions_skipped=(), shard_id="s0",
        attempts=1, retries=0, elapsed_s=0.002,
    ),
    ServiceResponse(
        rows=np.asarray([2, -1, -1], dtype=np.int64),
        degraded=True, coverage=0.25,
        partitions_skipped=("p1", "p2", "p3"),
        shard_id="s1", attempts=2, retries=1, elapsed_s=0.031,
    ),
]


def _assert_same_answer(decoded, response):
    """Every field but the in-process ``result`` survived exactly."""
    for field in dataclasses.fields(ServiceResponse):
        if field.name == "result":
            continue
        want = getattr(response, field.name)
        got = getattr(decoded, field.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


class TestResponsePayloads:
    @pytest.mark.parametrize(
        "response", _SEARCH_CASES,
        ids=[r.outcome + str(r.best_row) for r in _SEARCH_CASES],
    )
    def test_search_round_trip_exact(self, response):
        payload = _frame_round_trip(
            {"type": "response", "payload":
             encode_response("search", response)}
        )["payload"]
        decoded = decode_response("search", payload)
        assert decoded == response

    @pytest.mark.parametrize(
        "response", _TOPK_CASES,
        ids=[r.outcome for r in _TOPK_CASES],
    )
    def test_topk_round_trip_exact(self, response):
        payload = _frame_round_trip(
            {"type": "response", "payload":
             encode_response("topk", response)}
        )["payload"]
        decoded = decode_response("topk", payload)
        _assert_same_answer(decoded, response)

    def test_approximate_answer_survives_round_trip(self):
        # An index answer at nprobe < n_clusters: healthy, not
        # degraded, but approximate by request -- with -1 pads and the
        # index's distances.  Protocol v1 dropped ``approximate``, so
        # this answer arrived looking exact.
        response = ServiceResponse(
            rows=np.asarray([5, 9, -1], dtype=np.int64),
            distances=np.asarray([2, 4, -1], dtype=np.int64),
            degraded=False, approximate=True,
            shard_id="index", elapsed_s=0.004,
        )
        payload = _frame_round_trip(
            {"type": "response", "payload":
             encode_response("topk", response)}
        )["payload"]
        decoded = decode_response("topk", payload)
        assert decoded.approximate is True
        assert decoded.degraded is False
        _assert_same_answer(decoded, response)

    def test_dishonest_payload_is_typed(self):
        # Each one breaks the honesty contract; none may decode as an
        # answer.
        honest = encode_response("search", _SEARCH_CASES[0])
        for change in (
            {"coverage": 0.5},
            {"partitions_skipped": ["p1"]},
            {"best_row": -1},
            {"coverage": 1.5, "degraded": True},
        ):
            with pytest.raises(FrameCorruptError):
                decode_response("search", {**honest, **change})
        pad = encode_response("topk", _TOPK_CASES[0])
        with pytest.raises(FrameCorruptError):
            decode_response("topk", {**pad, "rows": [4, -1, -1]})

    def test_malformed_response_payload_is_typed(self):
        with pytest.raises(FrameCorruptError):
            decode_response("search", {"degraded": False})
        with pytest.raises(FrameCorruptError):
            decode_response("topk", {"rows": "not-a-list"})
        with pytest.raises(FrameCorruptError):
            decode_response("search", {
                "degraded": False, "outcome": "ok", "coverage": "x",
                "partitions_skipped": [], "shard_id": "", "attempts": 1,
                "retries": 0, "elapsed_s": 0.0, "best_row": 0,
                "best_distance": 1.0,
            })
