"""Bit-exactness and cost-model tests of the fabric MVM.

The contract: :meth:`repro.core.mvm.MVMPlan.matmul` returns *exactly*
``acts.astype(int64) @ weights.T`` for every integer operand pair.
These tests check its one kernel against three independent forms of
the product -- the fabric's bit-serial plane-pair decomposition (what
:meth:`MVMPlan.cost` models), a float64 GEMM, and the int64 loop --
across signedness, every bit width 1..8, awkward shapes (input widths
not a multiple of 64, single-row weights, single-sample batches), and
each precision branch of the kernel (float32, float64, int64).
"""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.core.mvm import (
    MVMCost,
    MVMPlan,
    infer_operand_bits,
    mvm,
)


def operand(rng, shape, bits, signed):
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return rng.integers(lo, hi + 1, size=shape, dtype=np.int64)


def reference(acts, weights):
    return acts.astype(np.int64) @ weights.T.astype(np.int64)


def bit_serial(acts, weights, a_bits, w_bits):
    """The fabric's form of the product: one AND + popcount per
    activation-plane x weight-plane pair, recombined with power-of-two
    (two's complement: negative top-plane) weights."""
    def planes(x, bits):
        u = x & ((1 << bits) - 1)
        p = [(u >> b) & 1 for b in range(bits)]
        w = [1 << b for b in range(bits)]
        if (x < 0).any():
            w[-1] = -w[-1]
        return p, w

    a_planes, a_w = planes(acts.astype(np.int64), a_bits)
    w_planes, w_w = planes(weights.astype(np.int64), w_bits)
    out = np.zeros((acts.shape[0], weights.shape[0]), dtype=np.int64)
    for ap, aw in zip(a_planes, a_w):
        for wp, ww in zip(w_planes, w_w):
            popcounts = (ap[:, None, :] & wp[None, :, :]).sum(axis=2)
            out += aw * ww * popcounts
    return out


ORACLES = {
    "packed": lambda acts, weights, a_bits, w_bits: bit_serial(
        acts, weights, a_bits, w_bits
    ),
    "gemm": lambda acts, weights, a_bits, w_bits: np.rint(
        acts.astype(np.float64) @ weights.T.astype(np.float64)
    ).astype(np.int64),
    "loop": lambda acts, weights, a_bits, w_bits: reference(acts, weights),
}


class TestInferOperandBits:
    def test_empty(self):
        assert infer_operand_bits(np.zeros((0, 3), dtype=np.int64)) == (
            1,
            False,
        )

    @pytest.mark.parametrize(
        "values,expected",
        [
            ([0, 1], (1, False)),
            ([0, 3], (2, False)),
            ([0, 255], (8, False)),
            ([-1, 0], (2, True)),
            ([-1, 1], (2, True)),
            ([-128, 127], (8, True)),
            ([-5, 2], (4, True)),
        ],
    )
    def test_ranges(self, values, expected):
        assert infer_operand_bits(np.array(values)) == expected


class TestExactness:
    @pytest.mark.parametrize("oracle", ["packed", "gemm", "loop"])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("n_in", [5, 64, 70, 100])
    def test_kernels_bit_identical(self, oracle, signed, n_in):
        rng = np.random.default_rng(hash((oracle, signed, n_in)) % 2**32)
        w_bits = 4 if signed else 3
        weights = operand(rng, (7, n_in), w_bits, signed)
        acts = operand(rng, (9, n_in), 5, signed)
        out = MVMPlan(weights, bits=w_bits, signed=signed).matmul(
            acts, bits=5, signed=signed
        )
        np.testing.assert_array_equal(
            out, ORACLES[oracle](acts, weights, 5, w_bits)
        )
        assert out.dtype == np.int64

    def test_single_row_weights_and_single_sample(self):
        rng = np.random.default_rng(3)
        weights = operand(rng, (1, 63), 8, True)
        acts = operand(rng, (1, 63), 8, True)
        out = MVMPlan(weights, bits=8).matmul(acts, bits=8)
        np.testing.assert_array_equal(out, reference(acts, weights))
        np.testing.assert_array_equal(out, bit_serial(acts, weights, 8, 8))

    def test_one_dim_activation_round_trips(self):
        rng = np.random.default_rng(4)
        weights = operand(rng, (6, 20), 5, True)
        a = operand(rng, (20,), 6, True)
        out = MVMPlan(weights).matmul(a)
        assert out.shape == (6,)
        np.testing.assert_array_equal(out, reference(a[None, :], weights)[0])

    def test_empty_batch(self):
        weights = np.ones((3, 8), dtype=np.int64)
        out = MVMPlan(weights).matmul(np.zeros((0, 8), dtype=np.int64))
        assert out.shape == (0, 3)

    def test_mvm_function_matches_numpy(self):
        rng = np.random.default_rng(6)
        a = operand(rng, (5, 12), 7, True)
        b = operand(rng, (12, 4), 7, True)
        np.testing.assert_array_equal(
            mvm(a, b), a.astype(np.int64) @ b.astype(np.int64)
        )

    def test_gemm_wide_accumulator_path(self):
        # 8b x 8b over a long inner axis exceeds the fp32-exact window;
        # the GEMM kernel must switch precision rather than round.
        n_in = 4096
        weights = np.full((2, n_in), 127, dtype=np.int64)
        weights[1] = -128
        acts = np.full((2, n_in), 127, dtype=np.int64)
        acts[1] = -128
        out = MVMPlan(weights).matmul(acts)
        np.testing.assert_array_equal(out, reference(acts, weights))


class TestPropertyExactness:
    """Randomized bit-identity over the full operand space."""

    hypothesis = pytest.importorskip("hypothesis")

    def test_property_sweep(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            w_bits=st.integers(1, 8),
            a_bits=st.integers(1, 8),
            w_signed=st.booleans(),
            a_signed=st.booleans(),
            n_out=st.integers(1, 9),
            n_in=st.integers(1, 130),
            n_batch=st.integers(1, 6),
            seed=st.integers(0, 2**31),
        )
        def check(
            w_bits, a_bits, w_signed, a_signed, n_out, n_in, n_batch, seed
        ):
            if w_signed and w_bits < 2:
                w_bits = 2
            if a_signed and a_bits < 2:
                a_bits = 2
            rng = np.random.default_rng(seed)
            weights = operand(rng, (n_out, n_in), w_bits, w_signed)
            acts = operand(rng, (n_batch, n_in), a_bits, a_signed)
            plan = MVMPlan(weights, bits=w_bits, signed=w_signed)
            out = plan.matmul(acts, bits=a_bits, signed=a_signed)
            np.testing.assert_array_equal(out, reference(acts, weights))
            np.testing.assert_array_equal(
                out, bit_serial(acts, weights, a_bits, w_bits)
            )

        check()


class TestValidation:
    def test_rejects_float_weights(self):
        with pytest.raises(TypeError, match="integer"):
            MVMPlan(np.ones((2, 4), dtype=np.float32))

    def test_rejects_wide_weights(self):
        with pytest.raises(ValueError, match="8"):
            MVMPlan(np.full((2, 4), 300, dtype=np.int64))

    def test_rejects_out_of_range_activations(self):
        plan = MVMPlan(np.ones((2, 4), dtype=np.int64))
        bad = np.full((1, 4), 9, dtype=np.int64)
        with pytest.raises(ValueError, match="range"):
            plan.matmul(bad, bits=3, signed=False)

    def test_rejects_wrong_inner_dim(self):
        plan = MVMPlan(np.ones((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            plan.matmul(np.ones((1, 5), dtype=np.int64))

    def test_loop_serves_wide_activations(self):
        # A partial-sum bound beyond 2**53: float64 would round the
        # product, so the int64 loop serves it -- no override needed.
        # The exact sum 3 * (2**52 + 1) is odd and above 2**53, so no
        # float64 accumulation order can represent it.
        plan = MVMPlan(np.ones((2, 3), dtype=np.int64))
        wide = np.full((1, 3), (1 << 52) + 1, dtype=np.int64)
        want = [[3 * ((1 << 52) + 1)] * 2]
        rounded = wide.astype(np.float64) @ np.ones((3, 2))
        assert not np.array_equal(rounded.astype(np.int64), want)
        np.testing.assert_array_equal(plan.matmul(wide), want)


class TestCostModel:
    def test_cost_shape(self):
        plan = MVMPlan(
            np.ones((16, 100), dtype=np.int64),
            config=TDAMConfig(bits=1, n_stages=128, vdd=0.6),
        )
        cost = plan.cost(activation_bits=8, n_batch=8)
        assert isinstance(cost, MVMCost)
        assert cost.plane_passes == plan.weight_bits * 8
        assert cost.tiles == 1
        assert cost.latency_s > 0
        assert cost.energy_j > 0
        assert set(cost.energy_breakdown_j) == {"array", "tdc", "readout"}
        assert cost.energy_j == pytest.approx(
            sum(cost.energy_breakdown_j.values())
        )

    def test_cost_scales_with_batch(self):
        plan = MVMPlan(np.ones((4, 300), dtype=np.int64))
        one = plan.cost(n_batch=1)
        ten = plan.cost(n_batch=10)
        assert ten.latency_s == pytest.approx(10 * one.latency_s)
        assert ten.energy_j == pytest.approx(10 * one.energy_j)
        assert one.tiles == 3  # ceil(300 / 128)
