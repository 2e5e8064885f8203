"""Network transport: the serving stack over asyncio TCP sockets.

The pieces, bottom-up:

- :mod:`repro.net.wire` -- length-prefixed, CRC-checked JSON frames, a
  version/feature handshake, and a lossless typed-error envelope: the
  whole :mod:`repro.service.errors` taxonomy crosses the wire intact
  (``retry_after_s``, ``reason``, shard lists and all), and responses
  decode to the one :class:`~repro.service.response.ServiceResponse`
  with their full honesty metadata (``degraded``, ``coverage``,
  ``partitions_skipped``, ``approximate``).
- :mod:`repro.net.server` -- an asyncio server adopting a
  :class:`~repro.service.frontend.CoalescingFrontend`: per-connection
  bounded in-flight windows (TCP backpressure, not unbounded buffers),
  remaining-budget deadline propagation, request-id propagation for
  cross-wire traces, graceful drain on SIGTERM.
- :mod:`repro.net.client` -- a pooled blocking client with budgeted
  decorrelated-jitter reconnects, retrying only transport failures of
  idempotent reads, never a typed server "no".
- :mod:`repro.net.faults` -- a seeded stream-level fault injector
  (disconnects, truncation, corrupt length prefixes, bit-flips,
  stalls) so every transport failure mode is reproducible from a seed.
- :mod:`repro.net.loadgen` -- the wall-clock open-loop load generator
  behind ``repro loadtest --remote``, scoring remote answers bit-exact
  against a seeded in-process oracle.
- :mod:`repro.net.chaos` -- the network chaos scenarios (flaky link,
  slow loris, server kill) registered in the
  :mod:`repro.service.chaos` suite.

Everything is stdlib + numpy; the wire protocol carries the honesty
guarantee the serving layer established: a network fault can delay or
typed-fail a request, never silently change its answer.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RemoteFrontend": "client",
    "ServerInfo": "client",
    "TDAMSocketServer": "server",
    "serve_until_signal": "server",
    "run_remote_load": "loadgen",
    "WireFaultPlan": "faults",
    "FaultyStream": "faults",
    "InjectedDisconnect": "faults",
    "WireProtocolError": "wire",
    "FrameCorruptError": "wire",
    "FrameTooLargeError": "wire",
    "FrameTimeoutError": "wire",
    "ConnectionLostError": "wire",
    "HandshakeError": "wire",
    "FrameDecoder": "wire",
    "encode_frame": "wire",
    "encode_error": "wire",
    "decode_error": "wire",
    "encode_response": "wire",
    "decode_response": "wire",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
