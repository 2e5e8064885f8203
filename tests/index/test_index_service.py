"""Index serving facade: backend contract, deadlines, frontend compat."""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.index import ClusteredTDAMIndex, IndexSearchService
from repro.service import CoalescePolicy, CoalescingFrontend
from repro.service.errors import DeadlineExceededError, InvalidRequestError


class FakeClock:
    """Monotonic clock advancing a fixed step per reading."""

    def __init__(self, step: float = 0.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def config():
    return TDAMConfig(n_stages=32)


@pytest.fixture
def index(tmp_path, rng, config):
    rows = rng.integers(0, config.levels, size=(200, config.n_stages))
    return ClusteredTDAMIndex.build(
        tmp_path / "idx", rows, config, n_clusters=6, seed=3
    )


@pytest.fixture
def service(index):
    return IndexSearchService(index, default_deadline_s=30.0)


@pytest.fixture
def queries(rng, config):
    return rng.integers(0, config.levels, size=(5, config.n_stages))


class TestBackendContract:
    def test_top_k_matches_the_index(self, service, index, queries):
        response = service.top_k(queries, 3)
        want = index.top_k(queries, 3)
        assert np.array_equal(response.rows, want.rows)
        assert np.array_equal(response.distances, want.distances)
        assert response.outcome == "ok"
        assert response.degraded is False
        assert response.shard_id == "index"

    def test_partial_probe_is_approximate_not_degraded(
        self, service, index, queries
    ):
        partial = service.top_k(queries, 2, nprobe=2)
        assert partial.approximate is True
        assert partial.degraded is False
        full = service.top_k(queries, 2, nprobe=index.n_clusters)
        assert full.approximate is False

    def test_search_batch_returns_one_response_per_query(
        self, service, index, queries
    ):
        responses = service.search_batch(queries)
        assert len(responses) == queries.shape[0]
        want = index.top_k(queries, 1)
        for i, response in enumerate(responses):
            assert response.best_row == int(want.rows[i, 0])
            assert response.best_distance == int(want.distances[i, 0])
            assert response.outcome == "ok"

    def test_search_serves_one_query(self, service, queries):
        response = service.search(queries[0])
        batch = service.search_batch(queries[:1])
        assert response.best_row == batch[0].best_row

    def test_n_rows_and_validate_query(self, service, config, queries):
        assert service.n_rows == 200
        validated = service.validate_query(queries[0])
        assert validated.shape == (config.n_stages,)


class TestAdmission:
    def test_wrong_stage_count_is_invalid(self, service, queries):
        with pytest.raises(InvalidRequestError, match="stages"):
            service.validate_query(queries[0][:-1])
        with pytest.raises(InvalidRequestError, match="stages"):
            service.top_k(queries[:, :-1], 2)

    def test_out_of_range_levels_are_invalid(self, service, queries):
        bad = queries.copy()
        bad[0, 0] = 99
        with pytest.raises(InvalidRequestError):
            service.search_batch(bad)

    def test_empty_batch_is_invalid(self, service, config):
        with pytest.raises(InvalidRequestError, match="empty"):
            service.search_batch(
                np.empty((0, config.n_stages), dtype=np.int64)
            )

    def test_bad_k_is_invalid(self, service, queries):
        with pytest.raises(InvalidRequestError, match="k must be"):
            service.top_k(queries, 0)
        with pytest.raises(InvalidRequestError, match="k must be"):
            service.top_k(queries, 10_000)

    def test_non_positive_deadline_is_invalid(self, service, queries):
        with pytest.raises(InvalidRequestError, match="deadline"):
            service.top_k(queries, 2, deadline_s=0.0)


class TestDeadlines:
    def test_slow_probe_raises_deadline_exceeded(self, index, queries):
        service = IndexSearchService(
            index, default_deadline_s=0.5, clock=FakeClock(step=1.0)
        )
        with pytest.raises(DeadlineExceededError):
            service.top_k(queries, 2)

    def test_fast_probe_reports_elapsed(self, index, queries):
        service = IndexSearchService(
            index, default_deadline_s=10.0, clock=FakeClock(step=1.0)
        )
        response = service.top_k(queries, 2)
        assert response.elapsed_s == pytest.approx(1.0)


class TestFrontendCompatibility:
    def test_coalescing_frontend_serves_the_index(
        self, service, index, queries
    ):
        frontend = CoalescingFrontend(
            service,
            policy=CoalescePolicy(window_s=0.001, max_batch=8),
        )
        with frontend:
            got = frontend.top_k(queries[0], k=3)
            single = frontend.search(queries[1])
        want = index.top_k(queries[:1], 3)
        assert np.array_equal(got.rows, want.rows[0])
        assert single.best_row == int(index.top_k(queries[1:2], 1).rows[0, 0])

    def test_coalesced_top_k_members_get_their_own_distances(
        self, service, queries
    ):
        # Four top-k requests coalesce into one index call; each member
        # must get its own query's rows *and* distances, never the
        # whole batch's.
        clock = FakeClock()
        frontend = CoalescingFrontend(
            service,
            policy=CoalescePolicy(window_s=0.01, max_batch=8),
            clock=clock,
            auto_dispatch=False,
        )
        futures = [
            frontend.submit_top_k(queries[i], 3, deadline_s=1.0)
            for i in range(4)
        ]
        clock.now = 0.05
        frontend.pump()
        assert frontend.stats().max_batch_size == 4
        for i, future in enumerate(futures):
            got = future.result(timeout=0)
            want = service.top_k(queries[i:i + 1], 3)
            assert got.rows.shape == got.distances.shape == (3,)
            assert np.array_equal(got.rows, want.rows[0])
            assert np.array_equal(got.distances, want.distances[0])
