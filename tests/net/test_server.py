"""End-to-end socket server tests: bit-exactness, typed failures, drain.

Everything runs against a real asyncio server on loopback (the
``harness`` fixture); the oracle is an identically-seeded in-process
stack, so "bit-exact over the wire" means exactly what it means
in-process.
"""

import socket
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.index import ClusteredTDAMIndex, IndexSearchService
from repro.net.chaos import ServerHarness, _build_stack
from repro.net.client import RemoteFrontend
from repro.net.wire import (
    ConnectionLostError,
    FrameDecoder,
    WireProtocolError,
    encode_frame,
    hello_message,
    request_message,
)
from repro.service import CoalescePolicy, CoalescingFrontend
from repro.service.errors import ServiceError
from repro.service.retry import RetryPolicy
from repro.telemetry.request import RequestContext, request_scope


def _raw_conversation(port, frames, max_wait_s=5.0):
    """Send raw frames after a handshake; return all reply messages."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=max_wait_s)
    decoder = FrameDecoder()
    replies = []
    try:
        sock.sendall(encode_frame(hello_message()))
        for frame in frames:
            sock.sendall(frame)
        sock.settimeout(max_wait_s)
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            try:
                replies.extend(decoder.feed(chunk))
            except WireProtocolError:
                break
    finally:
        sock.close()
    return replies


def _raw_hello(port, hello, max_wait_s=5.0):
    """Send one hello frame; return the server's first reply frames."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=max_wait_s)
    decoder = FrameDecoder()
    replies = []
    try:
        sock.sendall(encode_frame(hello))
        sock.settimeout(max_wait_s)
        while not replies:
            chunk = sock.recv(65536)
            if not chunk:
                break
            replies.extend(decoder.feed(chunk))
    finally:
        sock.close()
    return replies


@pytest.mark.timeout(60)
class TestRemoteBitExactness:
    def test_search_matches_in_process_frontend(
        self, config, stack, harness, queries
    ):
        stored, _ = stack
        # The oracle: a second stack from the same seed, in-process.
        oracle_stored, oracle = _build_stack(config, n_rows=8, seed=42)
        assert np.array_equal(stored, oracle_stored)
        try:
            with RemoteFrontend("127.0.0.1", harness.port) as client:
                for query in queries:
                    got = client.search(query, deadline_s=2.0)
                    want = oracle.search(query, deadline_s=2.0)
                    assert got.best_row == want.best_row
                    assert got.best_distance == float(
                        want.result.hamming_distances[want.best_row]
                    )
                    assert got.degraded == want.degraded
                    assert got.coverage == 1.0
        finally:
            oracle.drain()

    def test_topk_matches_in_process_frontend(
        self, config, stack, harness, queries
    ):
        _, _ = stack
        _, oracle = _build_stack(config, n_rows=8, seed=42)
        try:
            with RemoteFrontend("127.0.0.1", harness.port) as client:
                for query in queries[:8]:
                    got = client.top_k(query, 3, deadline_s=2.0)
                    want = oracle.top_k(query, 3, deadline_s=2.0)
                    assert np.array_equal(got.rows, want.rows)
                    assert got.degraded == want.degraded
        finally:
            oracle.drain()

    def test_handshake_advertises_geometry(self, config, harness):
        with RemoteFrontend("127.0.0.1", harness.port) as client:
            info = client.connect()
        assert info.n_rows == 8
        assert info.n_stages == config.n_stages
        assert info.levels == config.levels
        assert "search" in info.features and "topk" in info.features
        assert info.default_deadline_s == 2.0


@pytest.mark.timeout(60)
class TestApproximateOverTheWire:
    """An index probing fewer than all clusters answers approximate by
    request; that flag must survive the wire, or the answer would
    arrive looking exact."""

    def test_partial_probe_arrives_approximate(self, tmp_path, config):
        rng = np.random.default_rng(5)
        index = ClusteredTDAMIndex.build(
            tmp_path / "idx",
            rng.integers(0, config.levels, size=(120, config.n_stages)),
            config,
            n_clusters=4,
            seed=3,
        )
        queries = rng.integers(0, config.levels, size=(4, config.n_stages))
        frontend = CoalescingFrontend(
            IndexSearchService(index, default_deadline_s=2.0, nprobe=1),
            policy=CoalescePolicy(window_s=0.001, max_batch=8),
        )
        harness = ServerHarness(frontend).start()
        try:
            with RemoteFrontend("127.0.0.1", harness.port) as client:
                for query in queries:
                    want = index.top_k(query[None, :], 3, nprobe=1)
                    got = client.top_k(query, 3, deadline_s=2.0)
                    assert got.approximate is True
                    assert got.degraded is False
                    assert np.array_equal(got.rows, want.rows[0])
                    assert np.array_equal(got.distances, want.distances[0])
                    found = client.search(query, deadline_s=2.0)
                    assert found.approximate is True
                    assert found.best_row == want.rows[0, 0]
            # A protocol-v1 peer would drop ``approximate``: it must be
            # refused at the handshake, typed.
            old_hello = dict(hello_message(), version=1)
            replies = _raw_hello(harness.port, old_hello)
            assert replies and replies[0]["code"] == "handshake"
        finally:
            harness.stop()


@pytest.mark.timeout(60)
class TestTypedFailures:
    def test_version_mismatch_is_typed_handshake_error(self, harness):
        bad_hello = dict(hello_message())
        bad_hello["version"] = 99
        replies = _raw_hello(harness.port, bad_hello)
        assert replies and replies[0]["type"] == "error"
        assert replies[0]["code"] == "handshake"

    def test_expired_budget_is_typed_deadline(self, config, harness):
        query = [0] * config.n_stages
        message = request_message(1, "search", query, budget_s=1.0)
        message["budget_s"] = 0.0
        replies = _raw_conversation(
            harness.port, [encode_frame(message)]
        )
        errors = [m for m in replies if m.get("type") == "error"]
        assert errors and errors[0]["code"] == "deadline_exceeded"
        assert errors[0]["id"] == 1

    def test_unknown_kind_is_typed_invalid_request(
        self, config, harness
    ):
        message = request_message(
            2, "search", [0] * config.n_stages, budget_s=1.0
        )
        message["kind"] = "frobnicate"
        replies = _raw_conversation(
            harness.port, [encode_frame(message)]
        )
        errors = [m for m in replies if m.get("type") == "error"]
        assert errors and errors[0]["code"] == "invalid_request"

    def test_request_without_id_is_connection_level_error(
        self, config, harness
    ):
        message = request_message(
            3, "search", [0] * config.n_stages, budget_s=1.0
        )
        del message["id"]
        replies = _raw_conversation(
            harness.port, [encode_frame(message)]
        )
        errors = [m for m in replies if m.get("type") == "error"]
        assert errors and errors[0]["id"] is None
        assert errors[0]["code"] == "frame_corrupt"

    def test_corrupt_bytes_drop_connection_typed(self, harness):
        replies = _raw_conversation(harness.port, [b"GARBAGE" * 4])
        errors = [m for m in replies if m.get("type") == "error"]
        assert errors and errors[0]["code"] == "frame_corrupt"


@pytest.mark.timeout(120)
class TestGracefulDrain:
    def test_drain_with_concurrent_in_flight_clients(self, config):
        """SIGTERM-style drain mid-traffic: every concurrent client
        ends with exact answers or typed errors, never untyped,
        never hung (satellite)."""
        stored, frontend = _build_stack(config, n_rows=8, seed=9)
        harness = ServerHarness(frontend).start()
        port = harness.port
        rng = np.random.default_rng(31)
        queries = rng.integers(0, config.levels, (64, config.n_stages))
        stop = threading.Event()
        outcomes = {"ok": 0, "typed": 0, "untyped": 0}
        lock = threading.Lock()

        def run_client(worker_id):
            policy = RetryPolicy(
                max_attempts=2, backoff_base_s=0.001,
                backoff_cap_s=0.005, jitter_seed=worker_id,
            )
            with RemoteFrontend(
                "127.0.0.1", port, retry_policy=policy
            ) as client:
                i = worker_id
                while not stop.is_set():
                    query = queries[i % len(queries)]
                    i += 1
                    try:
                        response = client.search(query, deadline_s=2.0)
                        assert not response.degraded
                        with lock:
                            outcomes["ok"] += 1
                    except (WireProtocolError, ServiceError, OSError):
                        with lock:
                            outcomes["typed"] += 1
                    except Exception:
                        with lock:
                            outcomes["untyped"] += 1

        threads = [
            threading.Thread(target=run_client, args=(i,), daemon=True)
            for i in range(4)
        ]
        for t in threads:
            t.start()
        # Let traffic flow, then drain mid-stream.
        deadline = threading.Event()
        deadline.wait(0.3)
        harness.stop()
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in threads)
        assert outcomes["ok"] > 0
        assert outcomes["untyped"] == 0
        # The server is gone: new connections fail typed.
        with RemoteFrontend(
            "127.0.0.1", port,
            retry_policy=RetryPolicy(
                max_attempts=1, backoff_base_s=0.001,
                backoff_cap_s=0.002,
            ),
            connect_timeout_s=1.0,
        ) as late:
            with pytest.raises((ConnectionLostError, ServiceError)):
                late.search(queries[0], deadline_s=1.0)

    def test_frontend_drained_after_server_stop(self, config):
        from repro.service.errors import OverloadError

        _, frontend = _build_stack(config, n_rows=8, seed=9)
        harness = ServerHarness(frontend).start()
        harness.stop()
        # The server's drain cascaded into the front end: submits are
        # refused typed, and a second drain is a no-op.
        with pytest.raises(OverloadError) as info:
            frontend.submit(
                np.zeros(config.n_stages, dtype=int), deadline_s=1.0
            )
        assert info.value.reason == "draining"
        assert frontend.drain() == 0


@pytest.mark.timeout(60)
class TestRequestIdPropagation:
    def test_client_request_id_reaches_frontend(self, config, queries):
        stored, frontend = _build_stack(config, n_rows=8, seed=42)
        seen = []
        original_submit = frontend.submit

        def spy(query, **kwargs):
            from repro.telemetry.request import current_request

            ctx = current_request()
            seen.append(None if ctx is None else ctx.request_id)
            return original_submit(query, **kwargs)

        frontend.submit = spy
        harness = ServerHarness(frontend).start()
        try:
            with telemetry.enabled_scope():
                with RemoteFrontend("127.0.0.1", harness.port) as client:
                    ctx = RequestContext(
                        request_id="trace-abc123", tenant="t0"
                    )
                    with request_scope(ctx):
                        client.search(queries[0], deadline_s=2.0)
        finally:
            harness.stop()
        assert seen == ["trace-abc123"]
