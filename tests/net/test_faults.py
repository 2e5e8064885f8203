"""The seeded wire-fault injector: determinism and end-to-end honesty.

Unit half: each fault kind does exactly what it says on a socketpair.
Integration half: a seeded sweep over the single-fault catalog against
a real server -- under every fault kind, the client sees bit-exact
answers or typed errors, never silence, never a wrong answer.
"""

import socket
import struct

import numpy as np
import pytest

from repro.net.client import RemoteFrontend
from repro.net.faults import (
    FAULT_KINDS,
    FaultyStream,
    InjectedDisconnect,
    WireFaultPlan,
    plan_catalog,
)
from repro.net.wire import (
    ConnectionLostError,
    FrameDecoder,
    FrameTooLargeError,
    encode_frame,
    hello_message,
)
from repro.service.chaos import _Outcomes
from repro.service.retry import RetryBudget, RetryPolicy


class TestWireFaultPlan:
    def test_equal_seeds_replay_equal_fault_sequences(self):
        kwargs = dict(
            p_disconnect=0.1, p_truncate=0.1, p_corrupt_length=0.1,
            p_bit_flip=0.1, p_stall=0.1,
        )
        a = WireFaultPlan(seed=123, **kwargs)
        b = WireFaultPlan(seed=123, **kwargs)
        assert [a.draw() for _ in range(200)] == [
            b.draw() for _ in range(200)
        ]

    def test_draw_partitions_across_kinds(self):
        plan = WireFaultPlan(
            seed=7, p_disconnect=0.2, p_truncate=0.2,
            p_corrupt_length=0.2, p_bit_flip=0.2, p_stall=0.2,
        )
        kinds = {plan.draw() for _ in range(300)}
        assert kinds == set(FAULT_KINDS)

    def test_max_faults_caps_firing(self):
        plan = WireFaultPlan(seed=1, p_disconnect=1.0, max_faults=2)
        fired = [plan.draw() for _ in range(10)]
        assert fired[:2] == ["disconnect", "disconnect"]
        assert fired[2:] == [None] * 8
        assert plan.faults_fired == 2

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            WireFaultPlan(p_bit_flip=1.5)
        with pytest.raises(ValueError):
            WireFaultPlan(p_stall=-0.1)

    def test_catalog_covers_every_kind(self):
        catalog = plan_catalog(seed=5)
        assert set(catalog) == set(FAULT_KINDS)
        # Pure function of the seed: same names, same seeds.
        again = plan_catalog(seed=5)
        assert {k: p.seed for k, p in catalog.items()} == {
            k: p.seed for k, p in again.items()
        }


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def _recv_all(sock):
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.timeout(30)
class TestFaultyStream:
    def test_bit_flip_flips_exactly_one_bit(self):
        a, b = _pair()
        stream = FaultyStream(a, WireFaultPlan(seed=2, p_bit_flip=1.0))
        data = b"hello, wire protocol" * 3
        stream.sendall(data)
        stream.close()
        received = _recv_all(b)
        b.close()
        assert len(received) == len(data)
        diff = int.from_bytes(received, "big") ^ int.from_bytes(
            data, "big"
        )
        assert bin(diff).count("1") == 1

    def test_corrupt_length_garbles_header_length_field(self):
        a, b = _pair()
        stream = FaultyStream(
            a, WireFaultPlan(seed=3, p_corrupt_length=1.0)
        )
        stream.sendall(encode_frame(hello_message()))
        stream.close()
        received = _recv_all(b)
        b.close()
        assert received[4:8] == b"\xff\xff\xff\xff"
        _, declared, _ = struct.Struct("!4sII").unpack_from(received)
        with pytest.raises(FrameTooLargeError):
            FrameDecoder().feed(received)
        assert declared > FrameDecoder().max_frame_bytes

    def test_truncate_delivers_prefix_then_eof(self):
        a, b = _pair()
        stream = FaultyStream(a, WireFaultPlan(seed=4, p_truncate=1.0))
        frame = encode_frame(hello_message())
        with pytest.raises(InjectedDisconnect):
            stream.sendall(frame)
        received = _recv_all(b)
        b.close()
        assert 0 <= len(received) < len(frame)
        decoder = FrameDecoder()
        assert decoder.feed(received) == []
        if received:
            with pytest.raises(ConnectionLostError):
                decoder.eof()

    def test_disconnect_delivers_nothing(self):
        a, b = _pair()
        stream = FaultyStream(
            a, WireFaultPlan(seed=5, p_disconnect=1.0)
        )
        with pytest.raises(InjectedDisconnect):
            stream.sendall(b"never arrives")
        assert _recv_all(b) == b""
        b.close()
        # Later sends on the closed stream stay typed.
        with pytest.raises(InjectedDisconnect):
            stream.sendall(b"more")

    def test_stall_delays_then_delivers_intact(self):
        a, b = _pair()
        slept = []
        stream = FaultyStream(
            a,
            WireFaultPlan(seed=6, p_stall=1.0, stall_s=0.04),
            sleep=slept.append,
        )
        stream.sendall(b"delayed payload")
        stream.close()
        assert slept == [0.04]
        assert _recv_all(b) == b"delayed payload"
        b.close()


@pytest.mark.timeout(120)
class TestSeededSweepHonesty:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_fault_kind_is_exact_or_typed(
        self, config, stack, harness, kind
    ):
        """The acceptance criterion, per fault kind: under injected
        faults every request yields the correct answer or a typed
        error -- zero wrong-without-degraded, zero untyped."""
        stored, _ = stack
        rng = np.random.default_rng(101)
        seq = [0]

        def plan_factory():
            base = plan_catalog(seed=17)[kind]
            seq[0] += 1
            return WireFaultPlan(
                seed=base.seed + 100 * seq[0],
                p_disconnect=base.p_disconnect,
                p_truncate=base.p_truncate,
                p_corrupt_length=base.p_corrupt_length,
                p_bit_flip=base.p_bit_flip,
                p_stall=base.p_stall,
                stall_s=base.stall_s,
            )

        outcomes = _Outcomes(stored)
        with RemoteFrontend(
            "127.0.0.1", harness.port,
            retry_policy=RetryPolicy(
                max_attempts=4, backoff_base_s=0.001,
                backoff_cap_s=0.010, jitter_seed=17,
            ),
            retry_budget=RetryBudget(
                deposit_per_request=1.0, max_balance=64.0
            ),
            fault_plan_factory=plan_factory,
        ) as client:
            for _ in range(12):
                outcomes.serve(
                    client,
                    rng.integers(0, config.levels, config.n_stages),
                    deadline_s=2.0,
                )
        assert outcomes.n == 12
        assert outcomes.wrong_unflagged == 0
        assert outcomes.untyped == 0
        assert outcomes.ok > 0
