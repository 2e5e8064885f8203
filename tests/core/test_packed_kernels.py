"""Bit-exactness tests of the packed popcount kernels.

The packed bit-plane kernel that counts every batch and the per-query
reference loop must agree: identical mismatch counts (and therefore
identical delays, distances, and winners) on every input.  These tests
pin that contract across awkward geometries -- stage counts that are
not a multiple of 8, single-row arrays, every supported bit width,
all-match and all-mismatch rows -- on both the native
``np.bitwise_count`` path and the uint8 LUT fallback.
"""

import numpy as np
import pytest

from repro.core import bitplane
from repro.core.array import FastTDAMArray, resolve_query_chunk
from repro.core.bitplane import (
    pack_bit_planes,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    packed_pair_counts,
    packed_stage_bytes,
    packed_xor_counts,
    popcount,
)
from repro.core.config import TDAMConfig
from repro.devices.variation import VariationModel

# (bits, n_stages) geometries chosen to stress the packing: sub-byte,
# non-byte-multiple, exactly one byte, and the committed bench width.
GEOMETRIES = [(1, 5), (2, 13), (3, 8), (2, 128)]


def make_array(bits, n_stages, n_rows, variation=None, seed=0):
    config = TDAMConfig(bits=bits, n_stages=n_stages)
    rng = np.random.default_rng(seed)
    array = FastTDAMArray(config, n_rows=n_rows, variation=variation)
    array.write_all(rng.integers(0, config.levels, (n_rows, n_stages)))
    return array, rng


def all_kernel_counts(array, queries):
    chunk = resolve_query_chunk(array.n_rows, array.config.n_stages)
    return {
        "packed": array._counts_packed(queries, chunk),
        "loop": array._counts_loop(queries),
    }


@pytest.fixture
def lut_popcount(monkeypatch):
    """Force the numpy<2 LUT popcount path for the duration of a test."""
    monkeypatch.setattr(bitplane, "_use_native", False)


class TestPacking:
    def test_pack_level_planes_layout(self):
        # Stage n lives in bit 7 - n % 8 of byte n // 8, zero padded.
        tables = np.zeros((1, 1, 5), dtype=bool)
        tables[0, 0, [0, 3]] = True
        planes = pack_level_planes(tables)
        assert planes.shape == (1, 1, packed_stage_bytes(5))
        assert planes[0, 0, 0] == 0b10010000
        assert not planes[0, 0, 1:].any()

    def test_pack_level_planes_rejects_non_3d(self):
        with pytest.raises(ValueError, match=r"\(L, M, N\)"):
            pack_level_planes(np.zeros((2, 4), dtype=bool))

    def test_packed_stage_bytes_word_aligned(self):
        for n in (1, 7, 8, 9, 63, 64, 65, 128):
            b = packed_stage_bytes(n)
            assert b % 8 == 0
            assert b * 8 >= n
        with pytest.raises(ValueError, match="n_stages"):
            packed_stage_bytes(0)

    def test_pack_bit_planes_round_trip(self):
        rng = np.random.default_rng(7)
        for bits, n in GEOMETRIES:
            levels = rng.integers(0, 2 ** bits, (4, n))
            planes = pack_bit_planes(levels, bits)
            assert planes.shape == (bits, 4, packed_stage_bytes(n))
            unpacked = np.unpackbits(
                planes, axis=-1, count=n
            ).astype(np.int64)
            rebuilt = sum(unpacked[b] << b for b in range(bits))
            assert np.array_equal(rebuilt, levels)

    def test_pack_bit_planes_validation(self):
        with pytest.raises(ValueError, match=r"\(M, N\)"):
            pack_bit_planes(np.zeros(4, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="bits"):
            pack_bit_planes(np.zeros((2, 4), dtype=np.int64), 0)
        with pytest.raises(ValueError, match="bits"):
            pack_bit_planes(np.zeros((2, 4), dtype=np.int64), 9)

    @pytest.mark.parametrize("levels", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 5, 8, 13, 64])
    def test_query_masks_pow2_matches_generic(self, levels, n):
        # The bit-trick fast path must emit byte-identical masks to the
        # generic one-hot comparison, tail padding included.
        rng = np.random.default_rng(levels * 100 + n)
        q = rng.integers(0, levels, (6, n))
        fast = pack_query_masks(q, levels)
        generic = bitplane._pack_padded(
            q[:, None, :] == np.arange(levels)[None, :, None]
        )
        assert fast.dtype == np.uint8
        assert np.array_equal(fast, generic)

    def test_query_masks_non_pow2_levels(self):
        q = np.array([[0, 2, 1, 2, 0]])
        masks = pack_query_masks(q, 3)
        assert masks.shape == (1, 3, packed_stage_bytes(5))
        # Each stage is one-hot across levels.
        unpacked = np.unpackbits(masks, axis=-1, count=5)
        assert np.array_equal(unpacked.sum(axis=1), np.ones((1, 5)))

    def test_query_masks_rejects_non_2d(self):
        with pytest.raises(ValueError, match=r"\(Q, N\)"):
            pack_query_masks(np.zeros(4, dtype=np.int64), 4)


class TestPopcount:
    def test_native_matches_lut(self, monkeypatch):
        if not bitplane.HAVE_BITWISE_COUNT:
            pytest.skip("numpy has no native bitwise_count")
        values = np.arange(256, dtype=np.uint8)
        native = popcount(values)
        monkeypatch.setattr(bitplane, "_use_native", False)
        assert np.array_equal(popcount(values), native)

    def test_lut_rejects_wide_dtypes(self, lut_popcount):
        with pytest.raises(TypeError, match="uint8"):
            popcount(np.zeros(4, dtype=np.uint64))


class TestPackedCounts:
    def naive_counts(self, q, stored):
        return (q[:, None, :] != stored[None, :, :]).sum(axis=2)

    @pytest.mark.parametrize("bits,n", GEOMETRIES)
    def test_mismatch_counts_exact(self, bits, n):
        levels = 2 ** bits
        rng = np.random.default_rng(bits * 10 + n)
        stored = rng.integers(0, levels, (7, n))
        q = rng.integers(0, levels, (9, n))
        ineq = np.arange(levels)[:, None, None] != stored[None, :, :]
        counts = packed_mismatch_counts(
            pack_level_planes(ineq), pack_query_masks(q, levels)
        )
        assert counts.dtype == np.int64
        assert np.array_equal(counts, self.naive_counts(q, stored))

    @pytest.mark.parametrize("bits,n", GEOMETRIES)
    def test_xor_counts_exact(self, bits, n):
        levels = 2 ** bits
        rng = np.random.default_rng(bits * 11 + n)
        stored = rng.integers(0, levels, (7, n))
        q = rng.integers(0, levels, (9, n))
        counts = packed_xor_counts(
            pack_bit_planes(stored, bits), pack_bit_planes(q, bits)
        )
        assert counts.dtype == np.int64
        assert np.array_equal(counts, self.naive_counts(q, stored))

    def test_xor_counts_uint8_fold_boundary(self):
        # 256 stages = 32 bytes = 4 words: exercises the multi-word
        # uint8 accumulation (8 * 32 = 256 > 255 forces the wide sum).
        rng = np.random.default_rng(0)
        stored = rng.integers(0, 4, (3, 256))
        q = rng.integers(0, 4, (5, 256))
        counts = packed_xor_counts(
            pack_bit_planes(stored, 2), pack_bit_planes(q, 2)
        )
        assert np.array_equal(counts, self.naive_counts(q, stored))

    def test_counts_exact_on_lut_path(self, lut_popcount):
        rng = np.random.default_rng(5)
        stored = rng.integers(0, 4, (6, 13))
        q = rng.integers(0, 4, (4, 13))
        ineq = np.arange(4)[:, None, None] != stored[None, :, :]
        onehot = packed_mismatch_counts(
            pack_level_planes(ineq), pack_query_masks(q, 4)
        )
        xor = packed_xor_counts(
            pack_bit_planes(stored, 2), pack_bit_planes(q, 2)
        )
        expected = self.naive_counts(q, stored)
        assert np.array_equal(onehot, expected)
        assert np.array_equal(xor, expected)

    def test_pair_counts_match_full_cross_product(self):
        rng = np.random.default_rng(8)
        stored = rng.integers(0, 4, (6, 21))
        q = rng.integers(0, 4, (5, 21))
        ineq = np.arange(4)[:, None, None] != stored[None, :, :]
        planes = pack_level_planes(ineq)
        masks = pack_query_masks(q, 4)
        full = packed_mismatch_counts(planes, masks)
        q_idx = np.array([0, 0, 2, 4])
        r_idx = np.array([1, 5, 0, 3])
        pairs = packed_pair_counts(planes, masks, q_idx, r_idx)
        assert np.array_equal(pairs, full[q_idx, r_idx])
        empty = packed_pair_counts(
            planes, masks, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert empty.shape == (0,)

    def test_shape_validation(self):
        planes = np.zeros((4, 2, 8), dtype=np.uint8)
        bad = np.zeros((3, 5, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="disagree"):
            packed_mismatch_counts(planes, bad)
        with pytest.raises(ValueError, match="disagree"):
            packed_xor_counts(
                np.zeros((2, 3, 8), dtype=np.uint8),
                np.zeros((3, 3, 8), dtype=np.uint8),
            )


class TestKernelEquality:
    @pytest.mark.parametrize("bits,n", GEOMETRIES)
    @pytest.mark.parametrize("n_rows", [1, 7, 26])
    def test_all_kernels_agree(self, bits, n, n_rows):
        array, rng = make_array(bits, n, n_rows, seed=bits * n + n_rows)
        queries = rng.integers(0, array.config.levels, (11, n))
        counts = all_kernel_counts(array, queries)
        assert np.array_equal(counts["packed"], counts["loop"])

    def test_all_match_and_all_mismatch_rows(self):
        array, _ = make_array(2, 13, 3)
        stored = array._stored.copy()
        # Query equal to row 0 (all-match there) and its level-wise
        # complement (all-mismatch there).
        queries = np.stack([stored[0], 3 - stored[0]])
        counts = all_kernel_counts(array, queries)
        assert counts["loop"][0, 0] == 0
        assert counts["loop"][1, 0] == 13
        assert np.array_equal(counts["packed"], counts["loop"])

    def test_agreement_under_variation(self):
        # Variation breaks the pure-inequality structure: the XOR fast
        # path must refuse (planes cache None) and the one-hot packed
        # kernel must still match the reference decision-by-decision.
        array, rng = make_array(
            2, 13, 5, variation=VariationModel(sigma_mv=150.0, seed=3)
        )
        assert array._xor_bit_planes() is None
        queries = rng.integers(0, 4, (9, 13))
        counts = all_kernel_counts(array, queries)
        assert np.array_equal(counts["packed"], counts["loop"])

    def test_xor_fast_path_eligible_when_nominal(self):
        array, _ = make_array(2, 13, 5)
        planes = array._xor_bit_planes()
        assert planes is not None
        assert planes.shape[0] == 2

    def test_row_rewrite_invalidates_xor_planes(self):
        array, rng = make_array(2, 13, 4)
        assert array._xor_bit_planes() is not None
        new_row = rng.integers(0, 4, 13)
        array.write(2, new_row)
        queries = rng.integers(0, 4, (6, 13))
        counts = all_kernel_counts(array, queries)
        assert np.array_equal(counts["packed"], counts["loop"])
        assert counts["loop"][0, 2] == (queries[0] != new_row).sum()

    def test_search_batch_end_to_end_per_kernel(self):
        # The packed batch against the scalar search loop, on the XOR
        # path and, under variation, on the one-hot path.
        for variation in (None, VariationModel(sigma_mv=150.0, seed=3)):
            array, rng = make_array(2, 19, 6, variation=variation)
            queries = rng.integers(0, 4, (8, 19))
            got = array.search_batch(queries)
            for i, query in enumerate(queries):
                ref = array.search(query)
                assert np.array_equal(got.delays_s[i], ref.delays_s)
                assert np.array_equal(
                    got.hamming_distances[i], ref.hamming_distances
                )
                assert got.best_rows[i] == ref.best_row
                assert got.energies_j[i] == ref.energy_j

    def test_kernels_agree_on_lut_path(self, lut_popcount):
        array, rng = make_array(2, 13, 5)
        queries = rng.integers(0, 4, (7, 13))
        counts = all_kernel_counts(array, queries)
        assert np.array_equal(counts["packed"], counts["loop"])


class TestPropertyExactness:
    """Randomized cross-kernel agreement over the full geometry space."""

    hypothesis = pytest.importorskip("hypothesis")

    def test_random_geometries_agree(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            bits=st.integers(1, 3),
            n=st.integers(1, 40),
            n_rows=st.integers(1, 9),
            n_q=st.integers(1, 9),
            seed=st.integers(0, 2 ** 16),
        )
        def inner(bits, n, n_rows, n_q, seed):
            array, rng = make_array(bits, n, n_rows, seed=seed)
            queries = rng.integers(0, array.config.levels, (n_q, n))
            counts = all_kernel_counts(array, queries)
            assert np.array_equal(counts["packed"], counts["loop"])

        inner()


class TestChunkRule:
    """The packed count budgets what one of its queries allocates."""

    def test_budget_divides_by_the_count_transient(self, monkeypatch):
        from repro.core import array as array_module

        seen = []
        budget = array_module._budget_chunk

        def spy(per_query):
            seen.append(per_query)
            return budget(per_query)

        monkeypatch.setattr(array_module, "_budget_chunk", spy)
        width = packed_stage_bytes(128)
        nominal, rng = make_array(2, 128, 40)
        nominal.search_batch(rng.integers(0, 4, (5, 128)))
        # XOR path: bits * M * B bytes of words per query.
        assert seen == [2 * 40 * width]
        varied, rng = make_array(
            2, 128, 40, variation=VariationModel(sigma_mv=150.0, seed=3)
        )
        seen.clear()
        varied.mismatch_count_batch(rng.integers(0, 4, (5, 128)))
        # One-hot path: L * M * B.
        assert seen == [4 * 40 * width]

    def test_scan_geometry_batch_is_unchunked(self):
        from repro.core.array import _budget_chunk

        # 8192 logical + 2 spare rows x 128 stages at 2 bits: a 32-query
        # batch fits the budget in one block (the float-gather rule
        # would cut it into blocks of MIN_QUERY_CHUNK).
        assert _budget_chunk(2 * 8194 * packed_stage_bytes(128)) >= 32
        assert resolve_query_chunk(8194, 128) < 32


class TestResolveQueryChunkWorkingSet:
    """The working-set budget leg of the chunk auto-sizer."""

    def test_zero_working_set_is_the_old_behavior(self):
        assert resolve_query_chunk(100, 32) == resolve_query_chunk(
            100, 32, working_set_bytes=0
        )

    def test_working_set_shrinks_the_chunk(self):
        free = resolve_query_chunk(1000, 64)
        squeezed = resolve_query_chunk(
            1000, 64, working_set_bytes=28 * 1024 * 1024
        )
        assert squeezed < free

    def test_working_set_beyond_budget_floors_at_minimum(self):
        from repro.core.array import MIN_QUERY_CHUNK

        chunk = resolve_query_chunk(
            10, 8, working_set_bytes=1 << 40
        )
        assert chunk == MIN_QUERY_CHUNK

    def test_negative_working_set_is_rejected(self):
        with pytest.raises(ValueError, match="working_set_bytes"):
            resolve_query_chunk(10, 8, working_set_bytes=-1)
