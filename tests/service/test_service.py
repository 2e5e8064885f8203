"""Tests of the deadline/retry/breaker serving front end."""

import numpy as np
import pytest

from repro.core.faults import Fault, FaultType
from repro.resilience.resilient import ResilientTDAMArray
from repro.service import (
    AllShardsUnavailableError,
    BreakerState,
    DeadlineExceededError,
    FakeClock,
    InvalidRequestError,
    RetryBudget,
    RetryPolicy,
    ShardTimeoutError,
    TDAMSearchService,
)
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.state import enabled_scope

from tests.service.conftest import make_service


class TestConstruction:
    def test_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one"):
            TDAMSearchService([])

    def test_replicas_must_share_geometry(self, config):
        a = ResilientTDAMArray(config, n_rows=4)
        b = ResilientTDAMArray(config, n_rows=6)
        with pytest.raises(ValueError, match="geometry"):
            TDAMSearchService([a, b])


class TestAdmission:
    def test_wrong_length_rejected(self, service):
        with pytest.raises(InvalidRequestError, match="n_stages"):
            service.search([0, 1, 2])

    def test_out_of_range_rejected(self, service, config):
        query = [99] * config.n_stages
        with pytest.raises(InvalidRequestError, match="in \\[0"):
            service.search(query)

    def test_two_dimensional_query_rejected(self, service, stored):
        with pytest.raises(InvalidRequestError, match="1-D"):
            service.search(stored)

    def test_invalid_request_is_a_value_error(self, service):
        with pytest.raises(ValueError):
            service.search([0, 1, 2])

    def test_wrong_row_count_on_write(self, service, config):
        bad = np.zeros((3, config.n_stages), dtype=int)
        with pytest.raises(InvalidRequestError, match="rows"):
            service.write_all(bad)

    def test_nonpositive_deadline_rejected(self, service, stored):
        with pytest.raises(InvalidRequestError, match="deadline"):
            service.search(stored[0], deadline_s=0.0)


class TestServing:
    def test_exact_answers(self, service, stored):
        for row in range(stored.shape[0]):
            response = service.search(stored[row])
            assert response.best_row == row
            assert not response.degraded
            assert response.outcome == "ok"
            assert response.attempts == 1
            assert response.retries == 0

    def test_round_robin_spreads_replicas(self, service, stored):
        seen = {service.search(stored[0]).shard_id for _ in range(4)}
        assert seen == {"shard0", "shard1"}

    def test_batch_matches_single(self, service, stored):
        responses = service.search_batch(stored)
        assert [r.best_row for r in responses] == list(
            range(stored.shape[0])
        )
        assert all(not r.degraded for r in responses)

    def test_top_k_orders_by_distance(self, service, stored):
        top = service.top_k(stored[2][None, :], 3).rows[0]
        assert top[0] == 2
        assert len(set(top.tolist())) == 3
        with pytest.raises(ValueError, match="k must be"):
            service.top_k(stored[2][None, :], 0)

    def test_degraded_shard_flags_responses(self, config, stored, clock):
        shards = [
            ResilientTDAMArray(
                config,
                n_rows=stored.shape[0],
                n_spares=0,
                faults=[Fault(FaultType.DEAD_ROW, row=0, stage=None)],
            )
        ]
        service = TDAMSearchService(
            shards, clock=clock.now, sleep=clock.sleep
        )
        service.write_all(stored)
        shards[0].self_test_and_repair()
        response = service.search(stored[1])
        assert response.degraded
        assert response.outcome == "degraded"


class TestDeadlines:
    def test_slow_attempt_is_a_miss(self, config, stored, clock):
        service = make_service(config, stored, clock)

        def slow(shard_id, queries):
            clock.advance(0.200)

        service.add_interceptor(slow)
        with pytest.raises(DeadlineExceededError):
            service.search(stored[0], deadline_s=0.050)

    def test_exhausted_deadline_stops_retrying(
        self, config, stored, clock
    ):
        # Attempts burn simulated time; once the deadline is spent the
        # loop must miss instead of starting another attempt.
        service = make_service(
            config,
            stored,
            clock,
            retry_policy=RetryPolicy(
                max_attempts=10,
                backoff_base_s=0.0001,
                backoff_cap_s=0.0002,
            ),
            retry_budget=RetryBudget(max_balance=100.0),
        )

        def wedged(shard_id, queries):
            clock.advance(0.020)
            raise ShardTimeoutError(shard_id)

        service.add_interceptor(wedged)
        with pytest.raises(DeadlineExceededError):
            service.search(stored[0], deadline_s=0.050)

    def test_backoff_that_cannot_fit_is_not_slept(
        self, config, stored, clock
    ):
        service = make_service(
            config,
            stored,
            clock,
            retry_policy=RetryPolicy(
                max_attempts=5, backoff_base_s=0.200, backoff_cap_s=0.400
            ),
        )
        service.add_interceptor(
            lambda s, q: (_ for _ in ()).throw(ShardTimeoutError(s))
        )
        with pytest.raises(AllShardsUnavailableError):
            service.search(stored[0], deadline_s=0.050)
        # The deadline was never overrun by a sleep we chose to take.
        assert clock.now() < 0.050


class TestRetriesAndFailover:
    def test_failover_to_healthy_replica(self, config, stored, clock):
        service = make_service(config, stored, clock)

        def broken_shard0(shard_id, queries):
            if shard_id == "shard0":
                raise ShardTimeoutError("shard0 wedged")

        service.add_interceptor(broken_shard0)
        outcomes = [service.search(stored[i]) for i in range(4)]
        assert all(r.best_row == i for i, r in enumerate(outcomes))
        assert all(r.shard_id == "shard1" for r in outcomes)
        # Requests routed to shard0 first paid one retry.
        assert any(r.retries == 1 for r in outcomes)

    def test_breaker_opens_and_traffic_avoids_the_shard(
        self, config, stored, clock
    ):
        service = make_service(
            config, stored, clock, failure_threshold=2
        )

        def broken_shard0(shard_id, queries):
            if shard_id == "shard0":
                raise ShardTimeoutError("shard0 wedged")

        service.add_interceptor(broken_shard0)
        for i in range(6):
            service.search(stored[i % stored.shape[0]])
        assert (
            service.shards[0].breaker.state is BreakerState.OPEN
        )
        response = service.search(stored[0])
        assert response.attempts == 1
        assert response.shard_id == "shard1"

    def test_budget_exhaustion_falls_back_degraded(
        self, config, stored, clock
    ):
        service = make_service(
            config,
            stored,
            clock,
            retry_budget=RetryBudget(
                deposit_per_request=0.0, max_balance=1.0
            ),
        )
        flaky_calls = {"n": 0}

        def first_attempts_fail(shard_id, queries):
            flaky_calls["n"] += 1
            if flaky_calls["n"] <= 3:
                raise ShardTimeoutError("cold start")

        service.add_interceptor(first_attempts_fail)
        response = service.search(stored[0])
        # Served through the fallback path: correct but flagged.
        assert response.best_row == 0
        assert response.degraded

    def test_all_shards_down(self, config, stored, clock):
        service = make_service(config, stored, clock)
        service.add_interceptor(
            lambda s, q: (_ for _ in ()).throw(ShardTimeoutError(s))
        )
        with pytest.raises(AllShardsUnavailableError):
            service.search(stored[0])

    def test_health_check_quarantines_degraded_replica(
        self, config, stored, clock
    ):
        healthy = ResilientTDAMArray(
            config, n_rows=stored.shape[0], n_spares=2
        )
        sick = ResilientTDAMArray(
            config,
            n_rows=stored.shape[0],
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=0, stage=None)],
        )
        service = TDAMSearchService(
            [sick, healthy], clock=clock.now, sleep=clock.sleep
        )
        service.write_all(stored)
        sick.self_test_and_repair()
        states = service.run_health_checks()
        assert states["shard0"] is BreakerState.OPEN
        assert states["shard1"] is BreakerState.CLOSED
        for i in range(4):
            response = service.search(stored[i])
            assert response.shard_id == "shard1"
            assert not response.degraded


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, config, stored):
        def run_once():
            clock = FakeClock()
            fault_rng = np.random.default_rng(21)
            service = make_service(
                config,
                stored,
                clock,
                retry_policy=RetryPolicy(jitter_seed=5),
            )

            def flaky(shard_id, queries):
                if fault_rng.uniform() < 0.3:
                    raise ShardTimeoutError(shard_id)
                clock.advance(0.001)

            service.add_interceptor(flaky)
            trace = []
            for i in range(20):
                clock.advance(0.0001)
                try:
                    r = service.search(stored[i % stored.shape[0]])
                    trace.append(
                        (r.best_row, r.shard_id, r.attempts, r.retries,
                         r.elapsed_s)
                    )
                except Exception as exc:
                    trace.append(type(exc).__name__)
            return trace

        assert run_once() == run_once()


class TestTelemetry:
    def test_request_counters(self, config, stored, clock):
        with enabled_scope():
            service = make_service(config, stored, clock)
            service.search(stored[0])
            with pytest.raises(InvalidRequestError):
                service.search([0])
            registry = telemetry_metrics.get_registry()
            requests = registry.counter(
                "service_requests_total",
                labels=("outcome",),
            )
            assert requests.value(outcome="ok") == 1
            assert requests.value(outcome="rejected") == 1


class TestTopKEndpoint:
    def test_serves_pruned_rows(self, service, stored):
        queries = np.random.default_rng(6).integers(0, 4, size=(5, 16))
        response = service.top_k(queries, 2)
        assert response.outcome == "ok"
        assert not response.degraded
        assert response.pruned
        assert response.rows.shape == (5, 2)
        shard = service.shards[0].array
        assert np.array_equal(
            response.rows, shard.search_batch(queries).top_k(2)
        )

    def test_self_queries_win(self, service, stored):
        response = service.top_k(stored, 1)
        assert np.array_equal(
            response.rows[:, 0], np.arange(stored.shape[0])
        )

    def test_k_validation_is_a_rejection(self, service, stored):
        with pytest.raises(InvalidRequestError, match=r"k must be in"):
            service.top_k(stored[:1], 0)
        with pytest.raises(InvalidRequestError, match=r"k must be in"):
            service.top_k(stored[:1], 7)

    def test_admission_still_applies(self, service):
        with pytest.raises(InvalidRequestError, match="elements"):
            service.top_k([[9] * 16], 1)

    def test_degraded_shards_flag_the_response(self, config, stored, clock):
        shards = [
            ResilientTDAMArray(
                config,
                n_rows=6,
                n_spares=0,
                faults=[Fault(FaultType.DEAD_ROW, row=1)],
            )
            for _ in range(2)
        ]
        service = TDAMSearchService(
            shards, clock=clock.now, sleep=clock.sleep
        )
        service.write_all(stored)
        for shard in shards:
            shard.self_test_and_repair()
        queries = stored[:3]
        response = service.top_k(queries, 2)
        assert response.degraded
        assert not response.pruned
        assert response.outcome == "degraded"
        assert 1 not in set(response.rows.ravel())
