"""Clustered index: build, exactness ladder, routing, recall, padding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.array import FastTDAMArray
from repro.core.bitplane import pack_bit_planes, packed_pair_counts
from repro.core.config import TDAMConfig
from repro.datasets.synthetic import make_clustered_levels, perturb_levels
from repro.hdc.metrics import hamming_distance
from repro.index import (
    BitPlaneStore,
    BitPlaneStoreError,
    ClusteredTDAMIndex,
    build_store,
)
from repro.index import cluster_index


def _build(tmp_path, rows, config, n_clusters, **kwargs):
    return ClusteredTDAMIndex.build(
        tmp_path / "idx", rows, config,
        n_clusters=n_clusters, seed=3, **kwargs,
    )


def _routed_oracle(index, corpus, queries, k, nprobe):
    """Every result field from first principles: route by Hamming
    distance to the centroid levels (ties to the lower id), then rank
    each query's probed rows on a live array, padding with -1/inf."""
    store = index.store
    cents = store.centroid_levels.astype(np.int64)
    members = {
        store.shard(i).cluster: np.asarray(store.shard(i).row_ids)
        for i in range(store.n_shards)
    }
    array = FastTDAMArray(index.config, n_rows=corpus.shape[0])
    array.write_all(corpus)
    full = array.search_batch(queries)
    n_q = queries.shape[0]
    rows = np.full((n_q, k), -1, dtype=np.int64)
    distances = np.full((n_q, k), -1, dtype=np.int64)
    delays = np.full((n_q, k), np.inf)
    clusters = np.empty((n_q, nprobe), dtype=np.int64)
    probed_total = 0
    for i, query in enumerate(queries):
        hamming = (cents != query).sum(axis=1)
        clusters[i] = np.lexsort((np.arange(len(cents)), hamming))[:nprobe]
        probed = np.sort(np.concatenate(
            [members.get(c, np.empty(0, np.int64)) for c in clusters[i]]
        ))
        probed_total += probed.shape[0]
        if probed.shape[0] == 0:
            continue
        kk = min(k, probed.shape[0])
        top = array.top_k_batch(query[None, :], kk, rows=probed)[0]
        rows[i, :kk] = top
        distances[i, :kk] = full.hamming_distances[i, top]
        delays[i, :kk] = full.delays_s[i, top]
    return rows, distances, delays, clusters, probed_total


def _assert_matches_oracle(index, corpus, queries, k, nprobe):
    result = index.top_k(queries, k, nprobe=nprobe)
    rows, distances, delays, clusters, probed = _routed_oracle(
        index, corpus, queries, k, nprobe
    )
    assert np.array_equal(result.clusters, clusters)
    assert np.array_equal(result.rows, rows)
    assert np.array_equal(result.distances, distances)
    assert np.array_equal(result.delays_s, delays)
    assert result.rows_probed == probed
    return result


def _store_assignments(store):
    """Each corpus row's cluster, read back from the shard layout."""
    assignments = np.empty(store.n_rows, dtype=np.int64)
    for i in range(store.n_shards):
        shard = store.shard(i)
        assignments[shard.row_ids] = shard.cluster
    return assignments


class TestBuild:
    def test_all_zero_rows_are_placed_and_answered_exactly(
        self, tmp_path, rng
    ):
        # An all-zero row is valid content but has no cosine, so the
        # quantizer's sample leaves it out; the assignment places it.
        config = TDAMConfig(n_stages=16)
        corpus = rng.integers(0, config.levels, size=(500, 16))
        corpus[[0, 137, 499]] = 0
        queries = np.concatenate([
            np.zeros((1, 16), dtype=np.int64),
            rng.integers(0, config.levels, size=(8, 16)),
        ])
        index = _build(tmp_path, corpus, config, n_clusters=6)
        result = index.top_k(queries, 5, nprobe=index.n_clusters)
        array = FastTDAMArray(config, n_rows=500)
        array.write_all(corpus)
        assert np.array_equal(result.rows, array.top_k_batch(queries, 5))
        assert set(result.rows[0, :3].tolist()) == {0, 137, 499}
        for nprobe in (1, 3):
            _assert_matches_oracle(index, corpus, queries, 5, nprobe)

    def test_too_few_nonzero_sampled_rows_are_rejected(
        self, tmp_path, config
    ):
        corpus = np.zeros((40, config.n_stages), dtype=np.int64)
        corpus[:3, 0] = 1
        with pytest.raises(ValueError, match="only 3 of 40 sampled rows"):
            _build(tmp_path, corpus, config, n_clusters=4)

    def test_assignment_is_the_hamming_nearest_centroid(
        self, tmp_path, monkeypatch
    ):
        config = TDAMConfig(bits=2, n_stages=37)
        corpus, _, _ = make_clustered_levels(
            1000, 37, config.levels, 6, noise=0.3, seed=2
        )
        per_row = []

        def chunk(per_row_bytes):
            per_row.append(per_row_bytes)
            return 96  # 1000 rows: ten whole chunks and a partial one

        monkeypatch.setattr(cluster_index, "_budget_chunk", chunk)
        index = _build(tmp_path, corpus, config, n_clusters=6)
        # One corpus row against 6 centroids: two 8-byte bit-plane
        # words, a popcount byte and an int64 count each.
        assert per_row == [6 * (2 * 8 + 9)]
        want = hamming_distance(
            corpus, index.store.centroid_levels
        ).argmin(axis=1)
        assert np.array_equal(_store_assignments(index.store), want)

    def test_build_transients_stay_near_the_corpus(self, tmp_path):
        # Counting the whole corpus against 128 centroids at once
        # would hold (bits, 1, 20000, 128) uint64 XOR words, 39 MiB,
        # more than the bound; budget-sized chunks hold a few MiB.
        config = TDAMConfig(n_stages=64)
        corpus, _, _ = make_clustered_levels(
            20_000, 64, config.levels, 128, noise=0.35, seed=1
        )
        tracemalloc.start()
        try:
            _build(tmp_path, corpus, config, n_clusters=128,
                   sample_size=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Three int64 copies of the corpus: the store's validated
        # levels dominate what is left.
        assert peak < 3 * corpus.size * 8

    def test_build_holds_no_int64_copy_of_the_corpus(self, tmp_path):
        # Validation casts the levels once to uint8, and build_store
        # does not widen what build validated: the traced peak stays
        # below one 8-byte-per-level copy of the corpus (17.7 MiB with
        # two such copies against 9.8 MiB for one).
        config = TDAMConfig(n_stages=64)
        corpus, _, _ = make_clustered_levels(
            20_000, 64, config.levels, 128, noise=0.35, seed=1
        )
        tracemalloc.start()
        try:
            _build(tmp_path, corpus, config, n_clusters=128,
                   sample_size=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < corpus.size * 8

    @settings(max_examples=60, deadline=None)
    @given(n_stages=st.one_of(
        st.sampled_from([192, 193, 255, 256, 65_472, 65_473]),
        st.integers(1, 70_000),
    ))
    def test_pad_count_fits_the_count_dtype(self, n_stages):
        # A tile pads short rows with count n_stages + 1, written into
        # the kernel's narrow counts: it must not wrap.
        bits = pack_bit_planes(np.zeros((1, n_stages), np.uint8), 1)
        counts = packed_pair_counts(bits, bits, np.zeros((1, 1), np.int64))
        assert n_stages + 1 <= np.iinfo(counts.dtype).max


class TestRoutedExactness:
    """``top_k`` equals the routed oracle at every ``nprobe``."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("n_stages", [37, 64, 160, 192, 193])
    def test_every_field_matches_the_oracle(self, tmp_path, bits, n_stages):
        # n_stages=160 spans three packed words per plane; 192 is the
        # widest uint8 count and 193 the first uint16 one.
        config = TDAMConfig(bits=bits, n_stages=n_stages)
        corpus, _, _ = make_clustered_levels(
            240, n_stages, config.levels, 6, noise=0.3, seed=bits + n_stages
        )
        queries = perturb_levels(corpus[::24], config.levels, 0.3, seed=1)
        index = _build(tmp_path, corpus, config, n_clusters=6)
        for nprobe in (1, 3, 6):
            _assert_matches_oracle(index, corpus, queries, 7, nprobe)

    def test_empty_cluster_and_shards_smaller_than_k(self, tmp_path, rng):
        config = TDAMConfig(n_stages=64)
        corpus = rng.integers(0, config.levels, size=(30, 64))
        # Cluster 2 holds no rows; clusters 0 and 3 hold fewer than k.
        assignments = rng.permutation(
            np.repeat([0, 1, 3, 4], [3, 15, 2, 10])
        )
        cents = rng.integers(0, config.levels, size=(5, 64)).astype(np.uint8)
        store = build_store(
            tmp_path / "idx", corpus, config,
            assignments=assignments, centroid_levels=cents,
        )
        assert store.n_shards == 4
        index = ClusteredTDAMIndex(store)
        # Queries at each centroid route there first, empty one included.
        queries = np.concatenate(
            [cents.astype(np.int64), corpus[:4]]
        )
        for nprobe in (1, 2, 5):
            result = _assert_matches_oracle(index, corpus, queries, 6, nprobe)
        first = index.top_k(queries, 6, nprobe=1)
        assert np.all(first.rows[2] == -1)
        assert (first.rows == -1).any(axis=1).sum() >= 3
        assert result.rows_probed == 30 * queries.shape[0]

    def test_one_count_per_batch(self, tmp_path, rng, config, monkeypatch):
        rows = rng.integers(0, config.levels, size=(200, config.n_stages))
        queries = rng.integers(0, config.levels, size=(9, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=6)
        widths = []
        real = cluster_index.packed_pair_counts

        def spy(stored_bits, query_bits, positions):
            widths.append(positions.shape)
            return real(stored_bits, query_bits, positions)

        monkeypatch.setattr(cluster_index, "packed_pair_counts", spy)
        index.top_k(queries, 4, nprobe=3)
        assert len(widths) == 1 and widths[0][0] == 9

    def test_small_budget_splits_the_batch_into_tiles(
        self, tmp_path, monkeypatch
    ):
        config = TDAMConfig(bits=2, n_stages=37)
        corpus, _, _ = make_clustered_levels(
            300, 37, config.levels, 5, noise=0.3, seed=11
        )
        queries = perturb_levels(corpus[::30], config.levels, 0.3, seed=2)
        index = _build(tmp_path, corpus, config, n_clusters=5)
        whole = {n: index.top_k(queries, 6, nprobe=n) for n in (1, 2, 5)}
        tiles = []
        real = cluster_index.packed_pair_counts

        def spy(stored_bits, query_bits, positions):
            tiles.append(positions.shape[0])
            return real(stored_bits, query_bits, positions)

        monkeypatch.setattr(cluster_index, "packed_pair_counts", spy)
        monkeypatch.setattr(cluster_index, "_budget_chunk", lambda _: 3)
        # Tiles of 3 queries over all probe columns, then (a 1-byte
        # budget) over one probe column each.
        for budget in (cluster_index.QUERY_CHUNK_BUDGET_BYTES, 1):
            monkeypatch.setattr(
                cluster_index, "QUERY_CHUNK_BUDGET_BYTES", budget
            )
            for nprobe, want in whole.items():
                tiles.clear()
                got = _assert_matches_oracle(
                    index, corpus, queries, 6, nprobe
                )
                columns = 1 if budget > 1 else nprobe
                assert tiles == [3, 3, 3, 1] * columns
                for field in ("rows", "distances", "delays_s", "clusters"):
                    assert np.array_equal(
                        getattr(got, field), getattr(want, field)
                    )
                assert got.rows_probed == want.rows_probed


class TestExactness:
    @pytest.mark.parametrize("n_stages", [32, 160])
    def test_full_probe_is_bit_identical_to_exhaustive(
        self, tmp_path, rng, n_stages
    ):
        # n_stages=160 spans three packed words per plane.
        config = TDAMConfig(n_stages=n_stages)
        rows = rng.integers(0, config.levels, size=(300, n_stages))
        queries = rng.integers(0, config.levels, size=(17, n_stages))
        index = _build(tmp_path, rows, config, n_clusters=8)
        result = index.top_k(queries, 5, nprobe=index.n_clusters)
        array = FastTDAMArray(config, n_rows=300)
        array.write_all(rows)
        assert np.array_equal(result.rows, array.top_k_batch(queries, 5))

    def test_reopened_store_serves_identical_answers(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(200, config.n_stages))
        queries = rng.integers(0, config.levels, size=(9, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=6)
        want = index.top_k(queries, 4, nprobe=3)
        reopened = ClusteredTDAMIndex(BitPlaneStore(tmp_path / "idx"))
        got = reopened.top_k(queries, 4, nprobe=3)
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.delays_s, want.delays_s)

    def test_distances_and_delays_match_the_exhaustive_keys(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(150, config.n_stages))
        queries = rng.integers(0, config.levels, size=(7, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=5)
        result = index.top_k(queries, 3, nprobe=index.n_clusters)
        # Hamming distance of each selected row, recomputed directly.
        for i in range(queries.shape[0]):
            for j in range(3):
                row = result.rows[i, j]
                hamming = int((rows[row] != queries[i]).sum())
                assert result.distances[i, j] == hamming


class TestRouting:
    def test_route_is_deterministic_and_shaped(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(200, config.n_stages))
        queries = rng.integers(0, config.levels, size=(11, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=6)
        first = index.route(queries, nprobe=4)
        assert first.shape == (11, 4)
        assert np.array_equal(first, index.route(queries, nprobe=4))
        # Routed clusters are distinct per query.
        for row in first:
            assert len(set(row.tolist())) == 4

    def test_recall_on_clustered_corpus(self, tmp_path):
        config = TDAMConfig(n_stages=64)
        rows, _, _ = make_clustered_levels(
            4000, config.n_stages, config.levels, 16, noise=0.05, seed=5
        )
        queries = perturb_levels(rows[:32], config.levels, 0.05, seed=6)
        index = _build(tmp_path, rows, config, n_clusters=16)
        truth = index.top_k(queries, 10, nprobe=index.n_clusters)
        approx = index.top_k(queries, 10, nprobe=4)
        hits = sum(
            len(set(approx.rows[i]) & set(truth.rows[i]))
            for i in range(32)
        )
        assert hits / 320.0 >= 0.95
        assert approx.rows_probed < truth.rows_probed
        assert 0.0 < approx.probe_fraction < 1.0

    def test_probes_fire_when_telemetry_enabled(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(120, config.n_stages))
        queries = rng.integers(0, config.levels, size=(4, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        telemetry.reset()
        telemetry.enable()
        try:
            rec = telemetry.ProbeRecorder()
            telemetry.register_probe("index.route", rec)
            telemetry.register_probe("index.probe", rec)
            index.top_k(queries, 2, nprobe=2)
            events = rec.events()
        finally:
            telemetry.reset()
        assert "index.route" in events
        assert "index.probe" in events
        payload = rec.payloads("index.probe")[0]
        assert payload["queries"] == 4
        assert payload["rows_total"] == 120


class TestPaddingAndErrors:
    def test_short_probe_pads_with_minus_one(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(40, config.n_stages))
        queries = rng.integers(0, config.levels, size=(3, config.n_stages))
        # Hand-built store: exactly 10 rows per cluster, so nprobe=1
        # can never reach k=20 rows and padding is guaranteed.
        store = build_store(
            tmp_path / "idx", rows, config,
            assignments=np.arange(40, dtype=np.int64) % 4,
            centroid_levels=rows[:4].astype(np.uint8),
        )
        index = ClusteredTDAMIndex(store)
        k = 20
        result = index.top_k(queries, k, nprobe=1)
        assert result.rows.shape == (3, k)
        for i in range(3):
            padded = result.rows[i] == -1
            assert padded.any()
            # Pads are trailing and carry sentinel keys.
            first_pad = int(np.argmax(padded))
            assert np.all(result.rows[i, first_pad:] == -1)
            assert np.all(result.distances[i][padded] == -1)
            assert np.all(np.isinf(result.delays_s[i][padded]))

    def test_empty_batch_answers_empty(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(60, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        empty = np.empty((0, config.n_stages), dtype=np.int64)
        assert index.route(empty, nprobe=2).shape == (0, 2)
        result = index.top_k(empty, 3, nprobe=2)
        assert result.rows.shape == (0, 3)
        assert result.distances.shape == (0, 3)
        assert result.delays_s.shape == (0, 3)
        assert result.clusters.shape == (0, 2)
        assert result.rows_probed == 0

    def test_store_without_centroids_is_rejected(
        self, tmp_path, rng, config
    ):
        rows = rng.integers(0, config.levels, size=(50, config.n_stages))
        store = build_store(tmp_path / "flat", rows, config)
        with pytest.raises(BitPlaneStoreError, match="centroid"):
            ClusteredTDAMIndex(store)

    def test_bad_arguments_are_rejected(self, tmp_path, rng, config):
        rows = rng.integers(0, config.levels, size=(60, config.n_stages))
        queries = rng.integers(0, config.levels, size=(2, config.n_stages))
        index = _build(tmp_path, rows, config, n_clusters=4)
        with pytest.raises(ValueError, match="k must be"):
            index.top_k(queries, 0)
        with pytest.raises(ValueError, match="nprobe"):
            index.top_k(queries, 1, nprobe=0)
        with pytest.raises(ValueError, match="stages"):
            index.top_k(queries[:, :-1], 1)
        with pytest.raises(ValueError, match="n_clusters"):
            _build(tmp_path / "bad", rows, config, n_clusters=1)
