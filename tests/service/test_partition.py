"""Partitioned scatter/gather: global ranking, honest partial coverage."""

import numpy as np
import pytest

from repro.resilience.resilient import ResilientTDAMArray
from repro.service import (
    AllShardsUnavailableError,
    InvalidRequestError,
    PartitionedTDAMService,
    ShardTimeoutError,
    TDAMSearchService,
)

from tests.service.conftest import make_service


def _partition(config, clock, n_rows, n_shards=2):
    shards = [
        ResilientTDAMArray(config, n_rows=n_rows, n_spares=2)
        for _ in range(n_shards)
    ]
    return TDAMSearchService(
        shards, clock=clock.now, sleep=clock.sleep, default_deadline_s=1.0
    )


@pytest.fixture
def corpus(config):
    return np.random.default_rng(21).integers(
        0, config.levels, size=(16, config.n_stages)
    )


@pytest.fixture
def partitioned(config, clock, corpus):
    service = PartitionedTDAMService(
        [
            _partition(config, clock, 6),
            _partition(config, clock, 5),
            _partition(config, clock, 5),
        ],
        clock=clock.now,
    )
    service.write_all(corpus)
    return service


@pytest.fixture
def monolithic(config, clock, corpus):
    return make_service(config, corpus, clock, n_shards=1)


@pytest.fixture
def queries(config):
    return np.random.default_rng(22).integers(
        0, config.levels, size=(6, config.n_stages)
    )


class TestHealthyGather:
    def test_search_matches_monolithic(
        self, partitioned, monolithic, queries
    ):
        part = partitioned.search_batch(queries)
        mono = monolithic.search_batch(queries)
        for p, m in zip(part, mono):
            assert p.best_row == m.best_row
            assert p.outcome == "ok"
            assert not p.degraded
            assert p.coverage == 1.0
            assert p.partitions_skipped == ()

    def test_top_k_matches_monolithic(
        self, partitioned, monolithic, queries
    ):
        for k in (1, 4, 9):
            part = partitioned.top_k(queries, k)
            mono = monolithic.top_k(queries, k)
            assert np.array_equal(part.rows, mono.rows)
            assert not part.degraded

    def test_single_query_search(self, partitioned, monolithic, queries):
        p = partitioned.search(queries[0])
        m = monolithic.search(queries[0])
        assert p.best_row == m.best_row
        assert p.best_distance == float(
            m.result.hamming_distances[m.best_row]
        )

    def test_row_ranges(self, partitioned):
        assert partitioned.n_rows == 16
        assert partitioned.partition_of(0) == "part0"
        assert partitioned.partition_of(5) == "part0"
        assert partitioned.partition_of(6) == "part1"
        assert partitioned.partition_of(15) == "part2"
        with pytest.raises(InvalidRequestError):
            partitioned.partition_of(16)


class TestDegradedGather:
    def _kill(self, partitioned, index):
        def boom(shard_id, qs):
            raise ShardTimeoutError(f"{shard_id} down")

        partitioned.partitions[index].service.add_interceptor(boom)

    def test_skipped_partition_reported_not_invented(
        self, partitioned, queries
    ):
        self._kill(partitioned, 1)
        response = partitioned.top_k(queries, 8)
        assert response.degraded
        assert response.outcome == "degraded"
        assert response.coverage == pytest.approx(11 / 16)
        assert response.partitions_skipped == ("part1",)
        # part1's global rows (6..10) must never appear in the answer.
        assert not np.isin(response.rows, np.arange(6, 11)).any()

    def test_unreachable_tail_is_padded(self, partitioned, queries):
        self._kill(partitioned, 0)
        self._kill(partitioned, 1)
        response = partitioned.top_k(queries, 12)
        # Only part2's 5 rows are reachable: 7 pad slots per query.
        assert (response.rows == -1).sum(axis=1).tolist() == [7] * 6
        assert response.coverage == pytest.approx(5 / 16)

    def test_search_degrades_with_skips(self, partitioned, queries):
        self._kill(partitioned, 2)
        responses = partitioned.search_batch(queries)
        assert all(r.degraded for r in responses)
        assert all(r.best_row < 11 for r in responses)

    def test_all_partitions_down_raises(self, partitioned, queries):
        for i in range(3):
            self._kill(partitioned, i)
        with pytest.raises(AllShardsUnavailableError):
            partitioned.search_batch(queries)

    def test_deadline_spent_skips_remaining_partitions(
        self, partitioned, clock, queries
    ):
        # part0 answers but eats nearly the whole budget, part1's
        # attempt blows the rest: part2 must then be skipped without
        # ever being touched, and the response must say so.
        def slow(advance_s):
            def interceptor(shard_id, qs):
                clock.advance(advance_s)

            return interceptor

        attempted = []
        partitioned.partitions[0].service.add_interceptor(slow(0.39))
        partitioned.partitions[1].service.add_interceptor(slow(0.05))
        partitioned.partitions[2].service.add_interceptor(
            lambda shard_id, qs: attempted.append(shard_id)
        )
        response = partitioned.top_k(queries, 4, deadline_s=0.4)
        # Only part0 answered: every other partition is reported.
        assert response.partitions_skipped == ("part1", "part2")
        assert response.degraded
        assert attempted == []


class TestContentAndValidation:
    def test_write_all_slices_rows(self, partitioned, corpus, config):
        # Row 7 lives in part1 at local offset 1.
        inner = partitioned.partitions[1].service
        got = inner.shards[0].array._shadow
        assert np.array_equal(got, corpus[6:11])

    def test_write_all_wrong_rows_rejected(self, partitioned, config):
        with pytest.raises(InvalidRequestError, match="rows"):
            partitioned.write_all(
                np.zeros((5, config.n_stages), dtype=int)
            )

    def test_geometry_mismatch_rejected(self, config, clock):
        from repro.core.config import TDAMConfig

        other = TDAMConfig(n_stages=8)
        with pytest.raises(ValueError, match="geometry"):
            PartitionedTDAMService(
                [
                    _partition(config, clock, 4),
                    _partition(other, clock, 4),
                ]
            )

    def test_k_validation(self, partitioned, queries):
        with pytest.raises(InvalidRequestError, match="k must be"):
            partitioned.top_k(queries, 17)

    def test_validate_query_delegates(self, partitioned):
        with pytest.raises(InvalidRequestError):
            partitioned.validate_query(np.zeros((2, 2)))

    @pytest.mark.parametrize("defect", ["levels", "width"])
    @pytest.mark.parametrize("op", ["search_batch", "top_k"])
    def test_malformed_batch_is_invalid_not_unavailable(
        self, partitioned, queries, config, op, defect
    ):
        # A bad batch fails in every partition alike; that is the
        # caller's error, not an outage of the whole corpus.
        bad = queries.copy()
        if defect == "levels":
            bad[0, 0] = config.levels
        else:
            bad = bad[:, :-1]
        with pytest.raises(InvalidRequestError):
            if op == "search_batch":
                partitioned.search_batch(bad)
            else:
                partitioned.top_k(bad, 3)
