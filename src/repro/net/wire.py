"""The wire protocol: length-prefixed JSON frames with typed failures.

Everything that crosses a socket between the remote client and the
:class:`~repro.net.server.TDAMSocketServer` is a **frame**::

    +------+----------+---------+----------------------+
    | TDAM | length   | crc32   | payload (JSON, UTF-8) |
    | 4 B  | uint32BE | uint32BE| length bytes          |
    +------+----------+---------+----------------------+

The design choices are all about surviving a hostile link without ever
lying to the caller:

- **hard frame cap** -- a corrupt or malicious length prefix cannot
  make either side buffer unbounded memory; anything above
  ``max_frame_bytes`` is a typed :class:`FrameTooLargeError`, not an
  allocation;
- **payload checksum** -- TCP's checksum is weak and the chaos
  injector flips bits on purpose; a CRC-32 mismatch is a typed
  :class:`FrameCorruptError`, never a silently wrong answer;
- **typed everything** -- every way a byte stream can defeat the
  decoder (bad magic, bad length, bad checksum, bad JSON, truncation
  at EOF) raises a :class:`WireProtocolError` subclass.  The decoder
  never crashes with a stray ``ValueError``, never hangs, and never
  yields a partially-decoded message.

On top of the frame layer sit the **messages** (JSON objects carrying a
``type``): ``hello``/``hello_ok`` (version + feature handshake, the
server advertises its array geometry), ``request``/``response``
(search / top-k), ``error`` (the lossless typed-error envelope),
``goaway`` (graceful drain) and ``bye`` (client hang-up).

The error envelope is **lossless** for the whole serving taxonomy: a
:class:`~repro.service.errors.QuotaExceededError` raised by the remote
front end reaches the caller as a ``QuotaExceededError`` carrying the
exact ``retry_after_s``/``reason``/``tenant`` the in-process caller
would have seen -- the network must not weaken the overload contract.
Responses likewise carry every field of the
:class:`~repro.service.response.ServiceResponse` except the shard-level
``result`` -- the full honesty metadata (``degraded``, ``coverage``,
``partitions_skipped``, ``approximate``) bit-for-bit -- and decoding
rebuilds the one response type, whose construction re-checks the
honesty contract: a dishonest payload is a typed
:class:`FrameCorruptError`, never an answer.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

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
from repro.telemetry import metrics as _metrics
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

__all__ = [
    "PROTOCOL_VERSION",
    "FEATURES",
    "DEFAULT_MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "WireProtocolError",
    "FrameCorruptError",
    "FrameTooLargeError",
    "FrameTimeoutError",
    "ConnectionLostError",
    "HandshakeError",
    "FrameDecoder",
    "encode_frame",
    "hello_message",
    "hello_ok_message",
    "request_message",
    "response_message",
    "error_message",
    "goaway_message",
    "bye_message",
    "encode_error",
    "decode_error",
    "encode_response",
    "decode_response",
    "note_frame",
]

#: Protocol version both sides must agree on at handshake (2: responses
#: carry ``approximate`` and the index's top-k ``distances``).
PROTOCOL_VERSION = 2

#: Features this implementation speaks (advertised in the handshake;
#: a future version can negotiate down instead of breaking).
FEATURES: Tuple[str, ...] = ("search", "topk", "deadline", "goaway")

#: Default hard cap on one frame's payload (1 MiB).
DEFAULT_MAX_FRAME_BYTES = 1 << 20

_MAGIC = b"TDAM"
_HEADER = struct.Struct("!4sII")
#: Frame header size in bytes (magic + length + crc32).
HEADER_BYTES = _HEADER.size


# ----------------------------------------------------------------------
# Typed transport failures
# ----------------------------------------------------------------------
class WireProtocolError(ServiceError):
    """Base class of every transport-layer failure.

    Subclasses :class:`~repro.service.errors.ServiceError` so remote
    callers keep a single failure taxonomy: anything a
    :class:`~repro.net.client.RemoteFrontend` raises is a
    ``ServiceError``, wire-level or serving-level alike.
    """


class FrameCorruptError(WireProtocolError):
    """The byte stream is not a valid frame (magic, checksum, JSON)."""


class FrameTooLargeError(WireProtocolError):
    """A frame's declared length exceeds the hard cap."""


class FrameTimeoutError(WireProtocolError):
    """The peer did not produce a complete frame in time (stall)."""


class ConnectionLostError(WireProtocolError):
    """The connection died (refused, reset, or EOF mid-frame)."""


class HandshakeError(WireProtocolError):
    """Version/feature negotiation failed; the peers cannot talk."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def encode_frame(
    message: Dict[str, object],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One message as a complete frame (header + JSON payload).

    Raises:
        FrameTooLargeError: The encoded payload exceeds the cap -- the
            sender finds out *before* wasting the peer's time.
    """
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame payload {len(payload)} B exceeds the "
            f"{max_frame_bytes} B cap"
        )
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder: feed bytes, collect messages.

    A pure state machine (no socket, no clock) shared by the asyncio
    server and the blocking client, and fuzzed directly by the test
    suite.  Contract:

    - :meth:`feed` returns every *complete* message the new bytes
      finish, in order;
    - malformed input (bad magic, oversized length, checksum or JSON
      failure, non-object payload) raises a typed
      :class:`WireProtocolError` subclass -- after which the stream is
      unrecoverable and the connection must be dropped (framing is
      lost; resynchronizing on attacker-controlled bytes would be a
      parser exploit waiting to happen);
    - :meth:`eof` reports truncation: a partial frame still buffered
      when the peer hangs up raises :class:`ConnectionLostError`.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._dead = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Consume bytes; return the messages they complete.

        Raises:
            FrameCorruptError: Bad magic, bad checksum, bad JSON, or a
                payload that is not a JSON object.
            FrameTooLargeError: Declared length above the cap.
        """
        if self._dead:
            raise FrameCorruptError(
                "decoder is dead after a framing error; drop the connection"
            )
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return messages
            magic, length, crc = _HEADER.unpack_from(self._buffer)
            if magic != _MAGIC:
                self._dead = True
                raise FrameCorruptError(
                    f"bad frame magic {bytes(magic)!r}"
                )
            if length > self.max_frame_bytes:
                self._dead = True
                raise FrameTooLargeError(
                    f"declared frame length {length} B exceeds the "
                    f"{self.max_frame_bytes} B cap"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                return messages
            payload = bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length])
            del self._buffer[:HEADER_BYTES + length]
            if zlib.crc32(payload) != crc:
                self._dead = True
                raise FrameCorruptError("frame payload checksum mismatch")
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._dead = True
                raise FrameCorruptError(
                    f"frame payload is not valid JSON: {exc}"
                ) from exc
            if not isinstance(message, dict):
                self._dead = True
                raise FrameCorruptError(
                    f"frame payload must be a JSON object, "
                    f"got {type(message).__name__}"
                )
            messages.append(message)

    def eof(self) -> None:
        """Note the peer hung up; a buffered partial frame is an error.

        Raises:
            ConnectionLostError: Bytes of an unfinished frame were
                buffered -- the peer died mid-frame (truncation).
        """
        if self._buffer:
            pending = len(self._buffer)
            self._buffer.clear()
            self._dead = True
            raise ConnectionLostError(
                f"connection closed mid-frame ({pending} B pending)"
            )


# ----------------------------------------------------------------------
# Telemetry (shared by both sides of the wire)
# ----------------------------------------------------------------------
_REG = _metrics.get_registry()
_FRAMES = _REG.counter(
    "net_frames_total",
    "Wire frames processed, by direction (in/out) and message type",
    labels=("direction", "type"),
)
_NET_BYTES = _REG.counter(
    "net_bytes_total",
    "Wire payload bytes processed, by direction (in/out)",
    labels=("direction",),
)
_WIRE_ERRORS = _REG.counter(
    "net_wire_errors_total",
    "Typed transport failures observed, by error code",
    labels=("code",),
)


def note_frame(direction: str, message_type: str, n_bytes: int) -> None:
    """Count one frame crossing the wire (no-op when telemetry is off)."""
    if not _TM.enabled:
        return
    _FRAMES.inc(direction=direction, type=message_type)
    _NET_BYTES.inc(float(n_bytes), direction=direction)
    _emit_probe(
        "net.frame", direction=direction, type=message_type, bytes=n_bytes
    )


def note_wire_error(exc: BaseException) -> None:
    """Count one typed transport failure (no-op when telemetry is off)."""
    if _TM.enabled:
        _WIRE_ERRORS.inc(code=_error_code(exc))


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
def hello_message(
    features: Tuple[str, ...] = FEATURES,
) -> Dict[str, object]:
    """The client's opening frame: version + feature offer."""
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "features": list(features),
    }


def hello_ok_message(
    n_rows: int,
    n_stages: int,
    levels: int,
    default_deadline_s: float,
    server: str = "tdam",
    features: Tuple[str, ...] = FEATURES,
) -> Dict[str, object]:
    """The server's handshake reply: accepted version plus geometry.

    The geometry lets a remote caller size queries and ``k`` without a
    second round trip, exactly like an in-process caller reading
    ``service.n_rows``.
    """
    return {
        "type": "hello_ok",
        "version": PROTOCOL_VERSION,
        "features": list(features),
        "server": server,
        "n_rows": int(n_rows),
        "n_stages": int(n_stages),
        "levels": int(levels),
        "default_deadline_s": float(default_deadline_s),
    }


def request_message(
    req_id: int,
    kind: str,
    query,
    budget_s: float,
    tenant: str = "default",
    k: int = 0,
    request_id: Optional[str] = None,
) -> Dict[str, object]:
    """One search / top-k request frame.

    ``budget_s`` is the *remaining* deadline budget at send time: the
    client spends its network/queueing time out of the same budget, and
    the server dates its own deadline ``budget_s`` from frame arrival
    -- remaining-budget propagation, not wall-clock agreement.
    ``request_id`` carries the client's trace identity so server-side
    spans join the same request story.
    """
    message: Dict[str, object] = {
        "type": "request",
        "id": int(req_id),
        "kind": kind,
        "query": [int(v) for v in np.asarray(query).ravel()],
        "budget_s": float(budget_s),
        "tenant": tenant,
    }
    if kind == "topk":
        message["k"] = int(k)
    if request_id is not None:
        message["request_id"] = request_id
    return message


def goaway_message(reason: str = "draining") -> Dict[str, object]:
    """Server-initiated drain notice: finish in-flight, then close."""
    return {"type": "goaway", "reason": reason}


def bye_message() -> Dict[str, object]:
    """Client-initiated clean hang-up."""
    return {"type": "bye"}


# ----------------------------------------------------------------------
# Typed-error envelope
# ----------------------------------------------------------------------
#: Exception class -> wire code.  Ordered most-specific-first so
#: ``encode_error`` can fall back through ``isinstance`` for subclasses
#: the table does not name.
_ERROR_CODES: List[Tuple[Type[BaseException], str]] = [
    (QuotaExceededError, "quota_exceeded"),
    (OverloadError, "overload"),
    (AdmissionRejectedError, "admission_rejected"),
    (InvalidRequestError, "invalid_request"),
    (DeadlineExceededError, "deadline_exceeded"),
    (AllShardsUnavailableError, "all_shards_unavailable"),
    (RetryBudgetExhaustedError, "retry_budget_exhausted"),
    (CircuitOpenError, "circuit_open"),
    (ReplicaDivergenceError, "replica_divergence"),
    (ShardTimeoutError, "shard_timeout"),
    (ShardBusyError, "shard_busy"),
    (CalibrationDriftError, "calibration_drift"),
    (TransientServiceError, "transient"),
    (FrameTooLargeError, "frame_too_large"),
    (FrameCorruptError, "frame_corrupt"),
    (FrameTimeoutError, "frame_timeout"),
    (ConnectionLostError, "connection_lost"),
    (HandshakeError, "handshake"),
    (WireProtocolError, "wire_protocol"),
    (ServiceError, "service_error"),
]

_CODE_TO_CLASS: Dict[str, Type[BaseException]] = {
    code: cls for cls, code in _ERROR_CODES
}


def _error_code(exc: BaseException) -> str:
    for cls, code in _ERROR_CODES:
        if type(exc) is cls:
            return code
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"


def encode_error(exc: BaseException) -> Dict[str, object]:
    """The lossless typed-error envelope for one failure.

    Carries everything the in-process exception carried: admission
    failures keep ``retry_after_s``/``reason``/``tenant`` exactly,
    divergence keeps its shard lists.  Unknown exception types map to
    code ``internal`` (still typed on the far side, as a bare
    :class:`~repro.service.errors.ServiceError`).
    """
    envelope: Dict[str, object] = {
        "code": _error_code(exc),
        "message": str(exc),
    }
    if isinstance(exc, AdmissionRejectedError):
        envelope["retry_after_s"] = float(exc.retry_after_s)
        envelope["reason"] = exc.reason
        envelope["tenant"] = exc.tenant
    if isinstance(exc, ReplicaDivergenceError):
        envelope["shards_written"] = list(exc.shards_written)
        envelope["shards_unwritten"] = list(exc.shards_unwritten)
        envelope["failed_shard"] = exc.failed_shard
    return envelope


def decode_error(envelope: Dict[str, object]) -> BaseException:
    """Rebuild the typed exception an ``error`` envelope describes.

    The inverse of :func:`encode_error` for every class in the
    taxonomy; unknown codes decode to a plain
    :class:`~repro.service.errors.ServiceError` so a newer server
    cannot crash an older client.
    """
    code = str(envelope.get("code", "internal"))
    message = str(envelope.get("message", ""))
    cls = _CODE_TO_CLASS.get(code, ServiceError)
    if cls is QuotaExceededError:
        return QuotaExceededError(
            message,
            retry_after_s=float(envelope.get("retry_after_s", 0.0)),
            tenant=str(envelope.get("tenant", "")),
        )
    if cls in (OverloadError, AdmissionRejectedError):
        return cls(
            message,
            retry_after_s=float(envelope.get("retry_after_s", 0.0)),
            reason=str(envelope.get("reason", "overload")),
            tenant=str(envelope.get("tenant", "")),
        )
    if cls is ReplicaDivergenceError:
        failed = envelope.get("failed_shard")
        return ReplicaDivergenceError(
            message,
            shards_written=[
                str(s) for s in envelope.get("shards_written", [])
            ],
            shards_unwritten=[
                str(s) for s in envelope.get("shards_unwritten", [])
            ],
            failed_shard=None if failed is None else str(failed),
        )
    return cls(message)


def error_message(
    req_id: Optional[int], exc: BaseException
) -> Dict[str, object]:
    """One ``error`` frame (``req_id=None``: connection-level failure)."""
    message: Dict[str, object] = {"type": "error", "id": req_id}
    message.update(encode_error(exc))
    return message


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response(kind: str, response: ServiceResponse) -> Dict[str, object]:
    """One :class:`ServiceResponse` as a wire payload.

    Every field crosses except ``result`` (the shard-level distance and
    delay vectors stay in process); a top-k answer's ``rows`` (and
    ``distances``, when the backend set them) travel flattened.
    """
    payload: Dict[str, object] = {
        "degraded": bool(response.degraded),
        "coverage": float(response.coverage),
        "partitions_skipped": [str(p) for p in response.partitions_skipped],
        "approximate": bool(response.approximate),
        "pruned": bool(response.pruned),
        "shard_id": str(response.shard_id),
        "attempts": int(response.attempts),
        "retries": int(response.retries),
        "elapsed_s": float(response.elapsed_s),
    }
    if kind == "search":
        payload["best_row"] = int(response.best_row)
        payload["best_distance"] = float(response.best_distance)
    else:
        payload["rows"] = np.asarray(response.rows).ravel().tolist()
        if response.distances is not None:
            payload["distances"] = (
                np.asarray(response.distances).ravel().tolist()
            )
    return payload


def decode_response(kind: str, payload: Dict[str, object]) -> ServiceResponse:
    """The :class:`ServiceResponse` one ``response`` payload carries.

    Raises:
        FrameCorruptError: The payload is missing required fields,
            holds the wrong types, or breaks the honesty contract -- a
            malformed response is a transport failure, never a
            half-decoded answer.
    """
    try:
        common = dict(
            degraded=bool(payload["degraded"]),
            coverage=float(payload["coverage"]),
            partitions_skipped=tuple(
                str(p) for p in payload["partitions_skipped"]
            ),
            approximate=bool(payload["approximate"]),
            pruned=bool(payload["pruned"]),
            shard_id=str(payload["shard_id"]),
            attempts=int(payload["attempts"]),
            retries=int(payload["retries"]),
            elapsed_s=float(payload["elapsed_s"]),
        )
        if kind == "search":
            return ServiceResponse(
                best_row=int(payload["best_row"]),
                best_distance=float(payload["best_distance"]),
                **common,
            )
        distances = payload.get("distances")
        return ServiceResponse(
            rows=_int_array(payload["rows"]),
            distances=None if distances is None else _int_array(distances),
            **common,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameCorruptError(
            f"malformed {kind} response payload: {exc!r}"
        ) from exc


def _int_array(values) -> np.ndarray:
    return np.asarray([int(v) for v in values], dtype=np.int64)


def response_message(
    req_id: int, kind: str, response
) -> Dict[str, object]:
    """One ``response`` frame for a served request."""
    return {
        "type": "response",
        "id": int(req_id),
        "kind": kind,
        "payload": encode_response(kind, response),
    }
