"""Network chaos: break the transport on purpose, assert the SLOs.

The wire-level siblings of :mod:`repro.service.chaos`'s scenarios,
scored against the same honesty SLO with the same scorecards: a real
:class:`~repro.net.server.TDAMSocketServer` on loopback, a real
client, and a seeded injector breaking the bytes between them.

- **flaky link** -- every client connection runs through a seeded
  :class:`~repro.net.faults.FaultyStream` mixing disconnects,
  truncations, corrupt length prefixes, and bit-flips.  The SLO:
  every request ends in a bit-exact answer or a *typed* error; a
  flipped bit must never surface as a silently wrong answer
  (the CRC turns it into a typed retryable failure instead).
- **slow loris** -- a malicious peer trickles a partial frame and
  stalls forever while a healthy client keeps working.  The SLO: the
  server drops the stalled connection within its frame timeout and
  the healthy client's answers stay exact throughout.
- **server kill mid-stream** -- the server's sockets are aborted with
  no goaway and no drain, mid-traffic.  The SLO: the client observes
  only typed errors for the severed requests, and a restarted server
  on the same port serves the same exact answers again (the client's
  budgeted reconnect path heals without operator help).

Unlike the fake-clock scenarios these run on the wall clock -- real
sockets need real time -- so sizes stay small and deadlines generous:
the SLOs asserted are *honesty* properties, which hold at any speed,
never latency numbers that would flake on a loaded CI box.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import TDAMConfig
from repro.net.client import RemoteFrontend
from repro.net.faults import WireFaultPlan
from repro.net.server import TDAMSocketServer
from repro.net.wire import encode_frame, hello_message
from repro.service.chaos import ChaosScenarioResult, _Outcomes, _result
from repro.service.coalesce import CoalescePolicy
from repro.service.frontend import CoalescingFrontend
from repro.service.retry import RetryBudget, RetryPolicy
from repro.service.server import TDAMSearchService
from repro.service.stack import build_shards, draw_stored

__all__ = [
    "ServerHarness",
    "scenario_net_flaky_link",
    "scenario_net_slow_loris",
    "scenario_net_server_kill",
]


class ServerHarness:
    """One socket server on a background thread with its own loop.

    The chaos scenarios (and the net test suite) need a real server
    they can start, kill abruptly, and restart from synchronous test
    code; this wraps the asyncio lifecycle behind plain methods.
    """

    def __init__(
        self,
        frontend,
        port: int = 0,
        max_in_flight: int = 8,
        frame_timeout_s: float = 5.0,
        drain_grace_s: float = 5.0,
    ) -> None:
        self.frontend = frontend
        self._requested_port = port
        self._max_in_flight = max_in_flight
        self._frame_timeout_s = frame_timeout_s
        self._drain_grace_s = drain_grace_s
        self.server: Optional[TDAMSocketServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.server.port if self.server is not None else 0

    def start(self) -> "ServerHarness":
        self._ready.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server harness failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = TDAMSocketServer(
            self.frontend,
            port=self._requested_port,
            max_in_flight=self._max_in_flight,
            frame_timeout_s=self._frame_timeout_s,
            drain_grace_s=self._drain_grace_s,
        )
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self.server.serve_until(self._stop)

    def stop(self, timeout: float = 15.0) -> None:
        """Graceful: drain (goaway, finish in-flight) and join."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def kill(self, timeout: float = 15.0) -> None:
        """Abrupt: abort every socket, no goaway, no drain grace."""
        loop = self._loop
        server = self.server

        def _abort() -> None:
            if server is None:
                return
            if server._server is not None:
                server._server.close()
            for conn in list(server._connections.values()):
                transport = conn.writer.transport
                if transport is not None:
                    transport.abort()

        if loop is not None:
            loop.call_soon_threadsafe(_abort)
        # Let serve_until unwind through the (now trivial) drain.
        self.stop(timeout=timeout)


def _build_stack(
    config: TDAMConfig, n_rows: int, seed: int
) -> Tuple[np.ndarray, CoalescingFrontend]:
    """A small wall-clock serving stack with a seeded stored matrix."""
    shards = build_shards(
        config, n_rows, n_shards=2, n_spares=2, seed=seed
    )
    service = TDAMSearchService(shards, default_deadline_s=2.0)
    stored = draw_stored(np.random.default_rng(seed), service)
    service.write_all(stored)
    frontend = CoalescingFrontend(
        service,
        policy=CoalescePolicy(window_s=0.001, max_batch=8),
        auto_dispatch=True,
        name="net-chaos",
    )
    return stored, frontend


#: Remote request budget: generous, the SLOs here are about honesty.
_DEADLINE_S = 2.0


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_net_flaky_link(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Seeded wire faults on every connection: exact or typed, never
    silently wrong."""
    rng = np.random.default_rng(seed)
    stored, frontend = _build_stack(config, n_rows, seed)
    harness = ServerHarness(frontend).start()
    plan_seq = [0]

    def plan_factory() -> WireFaultPlan:
        plan_seq[0] += 1
        return WireFaultPlan(
            seed=seed + plan_seq[0],
            p_disconnect=0.04,
            p_truncate=0.04,
            p_corrupt_length=0.04,
            p_bit_flip=0.08,
        )

    outcomes = _Outcomes(stored)
    try:
        with RemoteFrontend(
            "127.0.0.1",
            harness.port,
            retry_policy=RetryPolicy(
                max_attempts=4,
                backoff_base_s=0.001,
                backoff_cap_s=0.010,
                jitter_seed=seed,
            ),
            retry_budget=RetryBudget(
                deposit_per_request=1.0, max_balance=64.0
            ),
            fault_plan_factory=plan_factory,
        ) as client:
            for _ in range(n_requests):
                outcomes.serve(
                    client,
                    rng.integers(0, config.levels, config.n_stages),
                    deadline_s=_DEADLINE_S,
                )
    finally:
        harness.stop()
    passed = outcomes.wrong_unflagged == 0 and outcomes.ok > 0
    return _result(
        "net_flaky_link", outcomes, None, passed,
        f"{outcomes.ok} exact, "
        f"{outcomes.n - outcomes.answered - outcomes.untyped} typed "
        f"errors, {outcomes.untyped} untyped (must be 0) under seeded "
        f"disconnect/truncate/corrupt/bit-flip faults",
    )


def scenario_net_slow_loris(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """A stalling peer is evicted; a healthy client is unharmed."""
    rng = np.random.default_rng(seed)
    stored, frontend = _build_stack(config, n_rows, seed)
    # Tight frame timeout so the eviction happens within the scenario.
    harness = ServerHarness(frontend, frame_timeout_s=0.2).start()
    outcomes = _Outcomes(stored)
    evicted = False
    try:
        # The loris: a valid handshake, then 4 bytes of a frame header
        # and silence.  The server must cut it off, not wait forever.
        loris = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=5.0
        )
        loris.sendall(encode_frame(hello_message()))
        loris.sendall(struct.pack("!4s", b"TDAM"))
        with RemoteFrontend("127.0.0.1", harness.port) as client:
            for _ in range(n_requests):
                outcomes.serve(
                    client,
                    rng.integers(0, config.levels, config.n_stages),
                    deadline_s=_DEADLINE_S,
                )
        deadline = time.monotonic() + 5.0
        loris.settimeout(5.0)
        while time.monotonic() < deadline:
            try:
                if loris.recv(4096) == b"":
                    evicted = True
                    break
            except socket.timeout:
                break
            except OSError:
                evicted = True
                break
        loris.close()
    finally:
        harness.stop()
    passed = (
        evicted
        and outcomes.wrong_unflagged == 0
        and outcomes.ok == outcomes.n
    )
    return _result(
        "net_slow_loris", outcomes, None, passed,
        f"stalled peer evicted: {evicted}; healthy client exact "
        f"{outcomes.ok}/{outcomes.n} throughout",
    )


def scenario_net_server_kill(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Sockets severed mid-stream: typed errors, then full recovery."""
    rng = np.random.default_rng(seed)
    stored, frontend = _build_stack(config, n_rows, seed)
    harness = ServerHarness(frontend).start()
    port = harness.port
    queries = [
        rng.integers(0, config.levels, config.n_stages)
        for _ in range(n_requests)
    ]
    split = max(1, n_requests // 3)
    outcomes = _Outcomes(stored)
    notes: List[str] = []
    client = RemoteFrontend(
        "127.0.0.1",
        port,
        retry_policy=RetryPolicy(
            max_attempts=2,
            backoff_base_s=0.001,
            backoff_cap_s=0.005,
            jitter_seed=seed,
        ),
    )
    try:
        # Phase 1: healthy traffic.
        for query in queries[:split]:
            outcomes.serve(client, query, deadline_s=_DEADLINE_S)
        healthy_ok = outcomes.ok == outcomes.n
        # Phase 2: kill mid-stream; requests must fail *typed*.
        harness.kill()
        before = outcomes.n
        answered_before = outcomes.answered
        for query in queries[split:2 * split]:
            outcomes.serve(client, query, deadline_s=_DEADLINE_S)
        killed_typed = (
            outcomes.answered == answered_before
            and outcomes.untyped == 0
        )
        notes.append(
            f"severed phase: {outcomes.n - before} requests, all "
            f"typed: {killed_typed}"
        )
        # Phase 3: a new server on the same stored content; the same
        # client (fresh budget deposits per request) must reconnect
        # and answer exactly again.
        stored2, frontend2 = _build_stack(config, n_rows, seed)
        assert np.array_equal(stored, stored2)
        harness2 = ServerHarness(frontend2, port=port).start()
        try:
            recovered_before_ok = outcomes.ok
            for query in queries[2 * split:]:
                outcomes.serve(client, query, deadline_s=_DEADLINE_S)
            recovered = (
                outcomes.ok - recovered_before_ok
                == n_requests - 2 * split
            )
            notes.append(f"post-restart exact answers: {recovered}")
        finally:
            harness2.stop()
    finally:
        client.close()
    passed = (
        healthy_ok
        and killed_typed
        and recovered
        and outcomes.wrong_unflagged == 0
    )
    return _result(
        "net_server_kill", outcomes, None, passed, "; ".join(notes)
    )
