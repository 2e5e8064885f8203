"""Client behavior against a scripted server: retries, pooling, budgets.

A tiny in-test server speaks just enough of the protocol to script
exact failure sequences, so every retry decision is asserted
deterministically: transport failures retry (budgeted), typed server
errors never do.
"""

import socket
import threading

import pytest

from repro.net.client import RemoteFrontend
from repro.net.wire import (
    ConnectionLostError,
    FrameDecoder,
    WireProtocolError,
    encode_frame,
    error_message,
    goaway_message,
    hello_ok_message,
    response_message,
)
from repro.service.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    QuotaExceededError,
    RetryBudgetExhaustedError,
)
from repro.service.response import ServiceResponse
from repro.service.retry import RetryBudget, RetryPolicy


def _fake_search_response(best_row=2, best_distance=3.0):
    """A scripted answer for ``response_message``."""
    return ServiceResponse(
        best_row=best_row, best_distance=best_distance,
        degraded=False, shard_id="s0", elapsed_s=0.001,
    )


class ScriptedServer:
    """Accepts connections, handshakes, then runs ``handler`` per
    request frame.  ``handler(sock, message, conn_no)`` returns False
    to close the connection."""

    def __init__(self, handler):
        self.handler = handler
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.connections = 0
        self.requests = []
        self._stopping = False
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        self.listener.settimeout(0.1)
        while not self._stopping:
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(sock, self.connections),
                daemon=True,
            ).start()

    def _serve(self, sock, conn_no):
        decoder = FrameDecoder()
        sock.settimeout(5.0)
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    return
                for message in decoder.feed(data):
                    if message.get("type") == "hello":
                        sock.sendall(encode_frame(hello_ok_message(
                            n_rows=8, n_stages=4, levels=4,
                            default_deadline_s=0.5,
                        )))
                    elif message.get("type") == "bye":
                        return
                    else:
                        self.requests.append(message)
                        if not self.handler(sock, message, conn_no):
                            return
        except (OSError, WireProtocolError):
            pass
        finally:
            sock.close()

    def stop(self):
        self._stopping = True
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def _fast_policy(max_attempts=3):
    return RetryPolicy(
        max_attempts=max_attempts, backoff_base_s=0.001,
        backoff_cap_s=0.002, jitter_seed=1,
    )


@pytest.mark.timeout(30)
class TestTypedServerErrors:
    def test_typed_error_never_retried_metadata_exact(self):
        def handler(sock, message, conn_no):
            sock.sendall(encode_frame(error_message(
                message["id"],
                QuotaExceededError(
                    "tenant dry", retry_after_s=0.125, tenant="t9"
                ),
            )))
            return True

        with ScriptedServer(handler) as server:
            with RemoteFrontend(
                "127.0.0.1", server.port,
                retry_policy=_fast_policy(),
            ) as client:
                with pytest.raises(QuotaExceededError) as info:
                    client.search([0, 1, 2, 3], deadline_s=1.0)
            assert info.value.retry_after_s == 0.125
            assert info.value.tenant == "t9"
            assert info.value.reason == "quota"
            # One request frame only: a typed "no" is final.
            assert len(server.requests) == 1

    def test_invalid_k_rejected_before_any_network(self):
        client = RemoteFrontend("127.0.0.1", 1)
        with pytest.raises(InvalidRequestError):
            client.top_k([0, 1], k=0, deadline_s=1.0)
        with pytest.raises(InvalidRequestError):
            client.search([0, 1], deadline_s=0.0)


@pytest.mark.timeout(30)
class TestTransportRetries:
    def test_goaway_reconnects_and_succeeds(self):
        def handler(sock, message, conn_no):
            if conn_no == 1:
                sock.sendall(encode_frame(goaway_message("draining")))
                return False
            sock.sendall(encode_frame(response_message(
                message["id"], "search", _fake_search_response()
            )))
            return True

        with ScriptedServer(handler) as server:
            with RemoteFrontend(
                "127.0.0.1", server.port,
                retry_policy=_fast_policy(),
            ) as client:
                response = client.search([0, 1, 2, 3], deadline_s=2.0)
            assert response.best_row == 2
            assert server.connections == 2

    def test_refused_connection_exhausts_attempts_typed(self):
        # A bound-then-closed socket: the port refuses connections.
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with RemoteFrontend(
            "127.0.0.1", port, retry_policy=_fast_policy(2),
            connect_timeout_s=0.5,
        ) as client:
            with pytest.raises(ConnectionLostError):
                client.search([0], deadline_s=2.0)

    def test_empty_retry_budget_stops_the_storm(self):
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with RemoteFrontend(
            "127.0.0.1", port,
            retry_policy=_fast_policy(5),
            retry_budget=RetryBudget(
                deposit_per_request=0.0, max_balance=0.5
            ),
            connect_timeout_s=0.5,
        ) as client:
            with pytest.raises(RetryBudgetExhaustedError):
                client.search([0], deadline_s=2.0)

    def test_wrong_response_id_is_typed_connection_loss(self):
        def handler(sock, message, conn_no):
            sock.sendall(encode_frame(response_message(
                999, "search", _fake_search_response()
            )))
            return True

        with ScriptedServer(handler) as server:
            with RemoteFrontend(
                "127.0.0.1", server.port,
                retry_policy=_fast_policy(1),
            ) as client:
                with pytest.raises(ConnectionLostError):
                    client.search([0, 1], deadline_s=1.0)

    def test_corrupt_reply_is_typed_wire_error(self):
        def handler(sock, message, conn_no):
            sock.sendall(b"NOT-A-FRAME-AT-ALL" * 3)
            return False

        with ScriptedServer(handler) as server:
            with RemoteFrontend(
                "127.0.0.1", server.port,
                retry_policy=_fast_policy(1),
            ) as client:
                with pytest.raises(WireProtocolError):
                    client.search([0, 1], deadline_s=1.0)

    def test_budget_burns_across_attempts(self):
        """A clock injected to jump past the deadline after the first
        transport failure: the client gives up with
        DeadlineExceededError instead of retrying forever."""
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        now = [0.0]

        def clock():
            return now[0]

        def sleep(duration):
            now[0] += duration

        client = RemoteFrontend(
            "127.0.0.1", port,
            retry_policy=_fast_policy(10),
            connect_timeout_s=0.2,
            clock=clock, sleep=sleep,
        )
        original_connect = client._connect

        def failing_connect():
            now[0] += 0.6  # each attempt costs more than the budget
            return original_connect()

        client._connect = failing_connect
        with pytest.raises(DeadlineExceededError):
            client.search([0], deadline_s=1.0)
        client.close()


@pytest.mark.timeout(30)
class TestPooling:
    def test_sequential_calls_reuse_one_connection(self):
        def handler(sock, message, conn_no):
            sock.sendall(encode_frame(response_message(
                message["id"], "search", _fake_search_response()
            )))
            return True

        with ScriptedServer(handler) as server:
            with RemoteFrontend("127.0.0.1", server.port) as client:
                for _ in range(5):
                    client.search([0, 1, 2, 3], deadline_s=1.0)
            assert server.connections == 1
            assert len(server.requests) == 5

    def test_default_deadline_adopts_server_advertisement(self):
        def handler(sock, message, conn_no):
            return True

        with ScriptedServer(handler) as server:
            with RemoteFrontend("127.0.0.1", server.port) as client:
                client.connect()
                assert client.default_deadline_s == 0.5

    def test_closed_client_is_typed(self):
        client = RemoteFrontend("127.0.0.1", 1)
        client.close()
        with pytest.raises(ConnectionLostError):
            client.search([0], deadline_s=1.0)
