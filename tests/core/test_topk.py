"""Exactness tests of the shared top-k helpers and the top-k entry points.

``top_k_indices`` is the single home of the (distance, delay, row)
ranking rule, so it must be bit-identical to a plain lexsort;
``FastTDAMArray.top_k_batch`` promises the exact rows of
``search_batch(queries).top_k(k)`` whether it ranks exact counts
(nominal timing) or the full search (variation); the clustered index at
full probe promises the exhaustive answer.  These tests pin all three,
including tie-heavy inputs and empty query batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import FastTDAMArray
from repro.core.bitplane import (
    pack_bit_planes,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    packed_xor_counts,
)
from repro.core.config import TDAMConfig
from repro.core.topk import grouped_top_k, prune_survivors, top_k_indices
from repro.devices.variation import VariationModel
from repro.index import ClusteredTDAMIndex
from repro.telemetry.state import enabled_scope


def naive_top_k(distances, k, delays_s=None):
    """The unoptimized full-lexsort reference of the ranking rule."""
    distances = np.atleast_2d(distances)
    out = np.empty((distances.shape[0], k), dtype=np.int64)
    for i in range(distances.shape[0]):
        keys = (
            (np.arange(distances.shape[1]), distances[i])
            if delays_s is None
            else (np.arange(distances.shape[1]), delays_s[i], distances[i])
        )
        out[i] = np.lexsort(keys)[:k]
    return out


class TestTopKIndices:
    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_matches_naive_lexsort(self, k):
        rng = np.random.default_rng(k)
        distances = rng.integers(0, 6, (9, 20)).astype(float)
        delays = rng.random((9, 20))
        got = top_k_indices(distances, k, delays_s=delays)
        assert np.array_equal(got, naive_top_k(distances, k, delays))

    def test_heavy_ties_break_on_index(self):
        distances = np.zeros(12)
        assert np.array_equal(
            top_k_indices(distances, 5), np.arange(5)
        )
        delays = np.zeros(12)
        assert np.array_equal(
            top_k_indices(distances, 5, delays_s=delays), np.arange(5)
        )

    def test_1d_input(self):
        distances = np.array([3.0, 1.0, 2.0, 1.0])
        assert np.array_equal(top_k_indices(distances, 2), [1, 3])
        assert top_k_indices(distances, 4).shape == (4,)

    def test_row_ids_returned_for_subsets(self):
        distances = np.array([[2.0, 0.0, 1.0]])
        rows = np.array([4, 7, 9])
        assert np.array_equal(
            top_k_indices(distances, 2, row_ids=rows), [[7, 9]]
        )

    def test_row_ids_validation(self):
        distances = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            top_k_indices(distances, 1, row_ids=np.array([5, 3]))
        with pytest.raises(ValueError, match="row_ids shape"):
            top_k_indices(distances, 1, row_ids=np.array([1, 2, 3]))

    def test_k_validation(self):
        distances = np.zeros((2, 4))
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\], got 0"):
            top_k_indices(distances, 0)
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\], got 5"):
            top_k_indices(distances, 5)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            top_k_indices(np.zeros((2, 2, 2)), 1)


class TestPruneSurvivors:
    def test_zero_remaining_is_exact(self):
        prefix = np.array([[5, 1, 3, 1, 9]])
        q_idx, r_idx = prune_survivors(prefix, 2)
        # Only rows tying or beating the 2nd smallest count survive.
        assert np.array_equal(r_idx, [1, 3])

    def test_validation(self):
        prefix = np.zeros((1, 3), dtype=int)
        with pytest.raises(ValueError, match="k must be in"):
            prune_survivors(prefix, 4)


class TestGroupedTopK:
    def test_ranks_within_each_query_group(self):
        q_idx = np.array([0, 0, 0, 1, 1, 1])
        r_idx = np.array([2, 5, 7, 1, 3, 8])
        primary = np.array([3.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        got = grouped_top_k(q_idx, r_idx, primary, 2, 2)
        assert np.array_equal(got, [[5, 7], [1, 8]])

    def test_secondary_key_breaks_ties(self):
        q_idx = np.zeros(3, dtype=int)
        r_idx = np.array([0, 1, 2])
        primary = np.zeros(3)
        secondary = np.array([0.3, 0.1, 0.2])
        got = grouped_top_k(
            q_idx, r_idx, primary, 2, 1, secondary=secondary
        )
        assert np.array_equal(got, [[1, 2]])

    def test_underfull_group_raises(self):
        with pytest.raises(ValueError, match="candidates"):
            grouped_top_k(
                np.array([0, 1]), np.array([0, 0]), np.zeros(2), 2, 2
            )

    def test_pad_fills_underfull_groups(self):
        # Query 0 has two candidates, query 1 only one: the partitioned
        # gather's "some rows were unreachable" shape.
        q_idx = np.array([0, 0, 1])
        r_idx = np.array([4, 2, 7])
        primary = np.array([1.0, 3.0, 5.0])
        got = grouped_top_k(q_idx, r_idx, primary, 3, 2, pad=-1)
        assert np.array_equal(got, [[4, 2, -1], [7, -1, -1]])

    def test_pad_allows_empty_group(self):
        q_idx = np.array([1, 1])
        r_idx = np.array([3, 9])
        primary = np.array([2.0, 1.0])
        got = grouped_top_k(q_idx, r_idx, primary, 2, 2, pad=-1)
        assert np.array_equal(got, [[-1, -1], [9, 3]])

    def test_pad_unused_when_groups_full(self):
        q_idx = np.array([0, 0, 1, 1])
        r_idx = np.array([0, 1, 2, 3])
        primary = np.array([1.0, 0.0, 0.0, 1.0])
        padded = grouped_top_k(q_idx, r_idx, primary, 2, 2, pad=-1)
        strict = grouped_top_k(q_idx, r_idx, primary, 2, 2)
        assert np.array_equal(padded, strict)


@pytest.fixture
def written_array():
    config = TDAMConfig(bits=2, n_stages=21)
    rng = np.random.default_rng(17)
    array = FastTDAMArray(config, n_rows=10)
    array.write_all(rng.integers(0, 4, (10, 21)))
    return array, rng


class TestArrayTopKBatch:
    def assert_matches_exhaustive(self, array, queries, k, rows=None):
        got = array.top_k_batch(queries, k, rows=rows)
        batch = array.search_batch(queries)
        if rows is None:
            expected = batch.top_k(k)
        else:
            rows = np.asarray(rows)
            expected = top_k_indices(
                batch.hamming_distances[:, rows],
                k,
                delays_s=batch.delays_s[:, rows],
                row_ids=rows,
            )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_pruned_matches_exhaustive(self, written_array, k):
        array, rng = written_array
        queries = rng.integers(0, 4, (13, 21))
        self.assert_matches_exhaustive(array, queries, k)

    def test_self_queries_rank_themselves_first(self, written_array):
        array, _ = written_array
        top = array.top_k_batch(array._stored, 1)
        assert np.array_equal(top[:, 0], np.arange(10))

    def test_tie_heavy_queries(self, written_array):
        # Identical rows force full (distance, delay) ties; the prune
        # bound must keep them all and the index rule must order them.
        config = TDAMConfig(bits=2, n_stages=21)
        array = FastTDAMArray(config, n_rows=6)
        array.write_all(np.ones((6, 21), dtype=np.int64))
        queries = np.zeros((3, 21), dtype=np.int64)
        self.assert_matches_exhaustive(array, queries, 4)

    def test_row_subsets(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (7, 21))
        rows = np.array([0, 3, 4, 8])
        self.assert_matches_exhaustive(array, queries, 2, rows=rows)
        got = array.top_k_batch(queries, 2, rows=rows)
        assert set(got.ravel()) <= set(rows.tolist())

    def test_variation_falls_back_exactly(self):
        config = TDAMConfig(bits=2, n_stages=21)
        rng = np.random.default_rng(23)
        array = FastTDAMArray(
            config, n_rows=8,
            variation=VariationModel(sigma_mv=60.0, seed=5),
        )
        array.write_all(rng.integers(0, 4, (8, 21)))
        assert not array._timing_is_nominal()
        queries = rng.integers(0, 4, (9, 21))
        self.assert_matches_exhaustive(array, queries, 3)

    def test_validation(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (2, 21))
        with pytest.raises(
            ValueError, match=r"k must be in \[1, 10\], got 11"
        ):
            array.top_k_batch(queries, 11)
        with pytest.raises(ValueError, match="strictly increasing"):
            array.top_k_batch(queries, 1, rows=np.array([3, 1]))
        with pytest.raises(ValueError, match=r"rows must lie in"):
            array.top_k_batch(queries, 1, rows=np.array([0, 10]))
        with pytest.raises(
            ValueError, match=r"k must be in \[1, 2\], got 3"
        ):
            array.top_k_batch(queries, 3, rows=np.array([0, 1]))

    def test_small_chunks_agree(self, written_array):
        array, rng = written_array
        queries = rng.integers(0, 4, (11, 21))
        expected = array.top_k_batch(queries, 3)
        assert np.array_equal(
            array.top_k_batch(queries, 3, chunk=4), expected
        )


class TestEmptyBatches:
    """Q = 0 answers with empty results."""

    def test_array_entry_points(self):
        config = TDAMConfig(bits=2, n_stages=64)
        rng = np.random.default_rng(29)
        array = FastTDAMArray(config, n_rows=40)
        array.write_all(rng.integers(0, 4, (40, 64)))
        empty = np.empty((0, 64), dtype=np.int64)
        batch = array.search_batch(empty)
        assert batch.hamming_distances.shape == (0, 40)
        assert batch.delays_s.shape == (0, 40)
        assert batch.best_rows.shape == (0,)
        assert batch.top_k(3).shape == (0, 3)
        assert array.top_k_batch(empty, 3).shape == (0, 3)
        assert array.top_k_batch(empty, 2, rows=[1, 4]).shape == (0, 2)
        with enabled_scope():
            assert array.search_batch(empty).best_rows.shape == (0,)
            assert array.top_k_batch(empty, 3).shape == (0, 3)

    def test_packed_counters(self):
        planes = pack_level_planes(np.ones((4, 5, 20), dtype=bool))
        masks = pack_query_masks(np.empty((0, 20), dtype=np.int64), 4)
        assert packed_mismatch_counts(planes, masks).shape == (0, 5)
        stored = pack_bit_planes(np.zeros((5, 20), dtype=np.int64), 2)
        queries = pack_bit_planes(np.empty((0, 20), dtype=np.int64), 2)
        assert packed_xor_counts(stored, queries).shape == (0, 5)

    def test_ranking_helpers(self):
        assert top_k_indices(np.empty((0, 6)), 4).shape == (0, 4)
        none = np.empty(0, dtype=np.int64)
        for pad in (None, -1):
            got = grouped_top_k(none, none, np.empty(0), 3, 0, pad=pad)
            assert got.shape == (0, 3)


def lexsort_top_k(distances, k, delays=None, row_ids=None):
    """The oracle: one full axis-wise lexsort, no candidate cut."""
    distances = np.atleast_2d(distances)
    cols = np.broadcast_to(np.arange(distances.shape[1]), distances.shape)
    keys = (cols, distances) if delays is None else (
        cols, np.atleast_2d(delays), distances
    )
    top = np.lexsort(keys, axis=-1)[:, :k]
    return top if row_ids is None else np.asarray(row_ids)[top]


def _fixture_array(variation):
    config = TDAMConfig(bits=2, n_stages=21)
    rng = np.random.default_rng(31)
    # Four distinct stored vectors over twelve rows: full count ties.
    distinct = rng.integers(0, 4, (4, 21))
    array = FastTDAMArray(
        config, n_rows=12,
        variation=VariationModel(sigma_mv=60.0, seed=5) if variation else None,
    )
    array.write_all(distinct[rng.integers(0, 4, 12)])
    assert array._timing_is_nominal() is not variation
    return array


_ARRAYS = {False: _fixture_array(False), True: _fixture_array(True)}


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    """One clustered index per old prefix regime, with its stored rows.

    At 64 stages the old prefix covered every stage; at 100 it left a
    remainder that could prune; at 128 it covered exactly half, so it
    pruned nothing.
    """
    built = {}
    for n_stages in (64, 100, 128):
        config = TDAMConfig(n_stages=n_stages)
        rng = np.random.default_rng(n_stages)
        rows = rng.integers(0, config.levels, (120, n_stages))
        index = ClusteredTDAMIndex.build(
            tmp_path_factory.mktemp(f"idx{n_stages}"), rows, config,
            n_clusters=5, seed=3,
        )
        built[n_stages] = (index, rows)
    return built


class TestRankingProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        n_q=st.integers(0, 4),
        m=st.integers(1, 12),
        n_values=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        with_delays=st.booleans(),
        with_row_ids=st.booleans(),
        one_d=st.booleans(),
    )
    def test_top_k_indices_is_the_lexsort(
        self, n_q, m, n_values, seed, with_delays, with_row_ids, one_d
    ):
        rng = np.random.default_rng(seed)
        shape = (m,) if one_d else (n_q, m)
        # Few distinct values per key: ties on distance and on delay.
        distances = rng.integers(0, n_values, shape)
        delays = rng.integers(0, n_values, shape) * 0.5
        row_ids = np.cumsum(rng.integers(1, 4, m)) if with_row_ids else None
        for k in range(1, m + 1):
            got = top_k_indices(
                distances, k,
                delays_s=delays if with_delays else None,
                row_ids=row_ids,
            )
            want = lexsort_top_k(
                distances, k, delays if with_delays else None, row_ids
            )
            assert np.array_equal(got, want[0] if one_d else want)

    @settings(max_examples=100, deadline=None)
    @given(
        variation=st.booleans(),
        n_q=st.integers(0, 5),
        k=st.integers(1, 12),
        subset=st.lists(st.integers(0, 11), unique=True, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_top_k_batch_ranks_the_search(
        self, variation, n_q, k, subset, seed
    ):
        array = _ARRAYS[variation]
        queries = np.random.default_rng(seed).integers(0, 4, (n_q, 21))
        rows = np.array(sorted(subset), dtype=np.int64) if subset else None
        cols = np.arange(12) if rows is None else rows
        k = min(k, cols.shape[0])
        # The scalar search loop is the oracle: no batched kernel.
        scalar = [array.search(query) for query in queries]
        distances = np.array(
            [r.hamming_distances for r in scalar], dtype=np.int64
        ).reshape(n_q, 12)
        delays = np.array([r.delays_s for r in scalar]).reshape(n_q, 12)
        want = lexsort_top_k(distances[:, cols], k, delays[:, cols], cols)
        got = array.top_k_batch(queries, k, rows=rows)
        assert got.shape == (n_q, k)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n_stages=st.sampled_from([64, 100, 128]),
        n_q=st.integers(0, 6),
        k=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_probe_index_is_the_count_oracle(
        self, indexes, n_stages, n_q, k, seed
    ):
        index, stored = indexes[n_stages]
        rng = np.random.default_rng(seed)
        # Half the queries are stored rows with a few stages changed,
        # so near-ties at small counts are common.
        queries = rng.integers(0, 4, (n_q, n_stages))
        near = stored[rng.integers(0, stored.shape[0], n_q)]
        flip = rng.random((n_q, n_stages)) < 0.05
        queries = np.where(
            (np.arange(n_q) % 2 == 0)[:, None],
            np.where(flip, queries, near), queries,
        )
        result = index.top_k(queries, k, nprobe=index.n_clusters)
        counts = (stored[None, :, :] != queries[:, None, :]).sum(axis=2)
        m = stored.shape[0]
        want = np.argsort(counts * m + np.arange(m), axis=1)[:, :k]
        assert result.rows.shape == (n_q, k)
        assert np.array_equal(result.rows, want)
