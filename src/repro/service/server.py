"""The fault-tolerant TD-AM search service.

:class:`TDAMSearchService` turns one or more replicated
:class:`~repro.resilience.resilient.ResilientTDAMArray` shards into a
request/response search endpoint with the serving disciplines a bare
library call lacks:

- **admission** -- strict input validation (shape, dtype, level range)
  raising :class:`~repro.service.errors.InvalidRequestError` before any
  shard is touched;
- **deadlines** -- every request carries a deadline on an injectable
  monotonic clock; attempts and backoffs that no longer fit are not
  started, and an answer that arrives late is a miss, not a success;
- **retries** -- transient shard faults retry under a
  :class:`~repro.service.retry.RetryPolicy` (exponential backoff with
  decorrelated jitter) guarded by a shared
  :class:`~repro.service.retry.RetryBudget`;
- **circuit breakers** -- each shard carries a
  :class:`~repro.service.breaker.CircuitBreaker` fed by request
  outcomes and by the shard's own BIST/repair health reports; routing
  prefers closed circuits and round-robins across replicas;
- **honest degradation** -- when no healthy replica can serve, the
  service returns a best-effort answer with ``degraded=True`` (or a
  typed error), never a silently wrong result.

Everything is instrumented through the existing telemetry pillars
(``service_*`` counters, ``service.*`` probe points) at the usual
disabled-cost of one boolean check.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.encoding import validate_levels
from repro.resilience.resilient import (
    ResilientBatchSearchResult,
    ResilientSearchResult,
    ResilientTDAMArray,
    TopKResult,
)
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.errors import (
    AllShardsUnavailableError,
    DeadlineExceededError,
    InvalidRequestError,
    ReplicaDivergenceError,
    TransientServiceError,
)
from repro.service.response import ServiceResponse
from repro.service.retry import RetryBudget, RetryPolicy
from repro.telemetry import metrics as _metrics
from repro.telemetry.log import get_logger
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM
from repro.telemetry.trace import span as _span

__all__ = [
    "TDAMSearchService",
    "ServiceResponse",
    "Shard",
]

_log = get_logger(__name__)

_REG = _metrics.get_registry()
_REQUESTS = _REG.counter(
    "service_requests_total",
    "Requests served, by outcome (ok/degraded/deadline/rejected/"
    "unavailable)",
    labels=("outcome",),
)
_RETRIES = _REG.counter(
    "service_retries_total", "Retry attempts scheduled by the service"
)
_DEADLINE_MISSES = _REG.counter(
    "service_deadline_miss_total", "Requests that ran out of deadline"
)
_REQUEST_SECONDS = _REG.histogram(
    "service_request_seconds",
    "End-to-end request latency (service clock)",
    buckets=_metrics.LATENCY_BUCKETS_S,
)

#: Interceptor signature: called before a shard attempt with
#: ``(shard_id, query_matrix)``; may raise a transient fault or burn
#: simulated time -- the chaos harness's injection point.
Interceptor = Callable[[str, np.ndarray], None]


@dataclass
class Shard:
    """One replica: the array, its breaker, and its interceptors."""

    shard_id: str
    array: ResilientTDAMArray
    breaker: CircuitBreaker
    interceptors: List[Interceptor] = field(default_factory=list)


class TDAMSearchService:
    """A deadline-aware, retrying, breaker-guarded search front end.

    Shards are *replicas*: each must hold the same logical content and
    geometry; :meth:`write_all` fans writes out to every replica.

    Args:
        shards: The replica arrays (at least one).
        retry_policy: Backoff/attempt policy for transient faults.
        retry_budget: Shared retry budget (storm protection).
        default_deadline_s: Deadline applied when a request names none.
        failure_threshold: Breaker trip threshold (consecutive
            transient failures per shard).
        reset_timeout_s: Breaker cool-down before half-open probing.
        half_open_probes: Trial requests admitted while half-open.
        health_check_interval: Run breaker health checks every this
            many requests (``None`` disables the automatic check).
        clock: Monotonic time source; injected for determinism.
        sleep: Backoff sleeper; injected so tests and the chaos
            harness advance a fake clock instead of wall time.
    """

    def __init__(
        self,
        shards: Sequence[ResilientTDAMArray],
        retry_policy: Optional[RetryPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
        default_deadline_s: float = 0.050,
        failure_threshold: int = 3,
        reset_timeout_s: float = 1.0,
        half_open_probes: int = 1,
        health_check_interval: Optional[int] = 64,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if not shards:
            raise ValueError("at least one shard is required")
        if default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        if health_check_interval is not None and health_check_interval < 1:
            raise ValueError(
                f"health_check_interval must be >= 1, "
                f"got {health_check_interval}"
            )
        first = shards[0]
        for shard in shards[1:]:
            if (
                shard.config.n_stages != first.config.n_stages
                or shard.config.levels != first.config.levels
                or shard.n_rows != first.n_rows
            ):
                raise ValueError(
                    "replica shards must share geometry "
                    "(n_rows, n_stages, levels)"
                )
        self.config = first.config
        self.n_rows = first.n_rows
        self.policy = retry_policy or RetryPolicy()
        self.budget = retry_budget or RetryBudget()
        self.default_deadline_s = default_deadline_s
        self.health_check_interval = health_check_interval
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._jitter_rng = np.random.default_rng(self.policy.jitter_seed)
        self.shards: List[Shard] = [
            Shard(
                shard_id=f"shard{i}",
                array=array,
                breaker=CircuitBreaker(
                    f"shard{i}",
                    failure_threshold=failure_threshold,
                    reset_timeout_s=reset_timeout_s,
                    half_open_probes=half_open_probes,
                    clock=self._clock,
                ),
            )
            for i, array in enumerate(shards)
        ]
        self._rr_next = 0
        self._requests_served = 0
        # Guards the cross-request mutable state (round-robin cursor,
        # request counter, jitter stream, divergence set); the retry
        # budget and each breaker carry their own locks.
        self._lock = threading.Lock()
        self._diverged: set = set()

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program every replica with the same stored matrix.

        The fan-out is all-or-divergent: when a replica's write raises
        mid-fanout, the replicas no longer hold the same matrix, and
        silence here would turn every later read into a lottery.
        Instead a typed :class:`ReplicaDivergenceError` names exactly
        which shards hold the new matrix, and every shard *not* holding
        it is quarantined (breaker force-opened) until a subsequent
        full rewrite succeeds and lifts the quarantine.

        Raises:
            InvalidRequestError: The matrix failed admission.
            ReplicaDivergenceError: A replica write failed after others
                had already been written.
        """
        values = self._admit_matrix(matrix, name="stored matrix")
        if values.shape[0] != self.n_rows:
            raise InvalidRequestError(
                f"stored matrix has {values.shape[0]} rows, "
                f"service replicas hold {self.n_rows}"
            )
        written: List[str] = []
        for shard in self.shards:
            try:
                shard.array.write_all(values)
            except Exception as exc:
                unwritten = [
                    s.shard_id
                    for s in self.shards
                    if s.shard_id not in written
                ]
                with self._lock:
                    self._diverged.update(unwritten)
                for s in self.shards:
                    if s.shard_id in unwritten:
                        s.breaker.force_open(
                            f"replica divergence: write failed on "
                            f"{shard.shard_id} ({type(exc).__name__})"
                        )
                raise ReplicaDivergenceError(
                    f"write fan-out failed on {shard.shard_id} after "
                    f"{len(written)}/{len(self.shards)} replicas were "
                    f"written; unwritten shards {unwritten} are "
                    f"quarantined until rewritten",
                    shards_written=written,
                    shards_unwritten=unwritten,
                    failed_shard=shard.shard_id,
                ) from exc
            written.append(shard.shard_id)
        # Full fan-out success: replicas agree again, lift any
        # divergence quarantine (health-driven opens are untouched --
        # force_close only the breakers *this* path opened).
        with self._lock:
            diverged, self._diverged = self._diverged, set()
        for shard in self.shards:
            if shard.shard_id in diverged:
                shard.breaker.force_close("replica rewritten in full")

    def add_interceptor(
        self, interceptor: Interceptor, shard_id: Optional[str] = None
    ) -> None:
        """Install a pre-attempt interceptor (fault injection seam).

        Interceptors run immediately before each shard attempt and may
        raise :class:`TransientServiceError` subclasses or advance the
        injected clock.  ``shard_id=None`` installs on every shard.
        """
        for shard in self.shards:
            if shard_id is None or shard.shard_id == shard_id:
                shard.interceptors.append(interceptor)

    def clear_interceptors(self) -> None:
        """Remove every installed interceptor."""
        for shard in self.shards:
            shard.interceptors.clear()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_matrix(self, values, name: str) -> np.ndarray:
        try:
            arr = validate_levels(
                np.atleast_2d(np.asarray(values)),
                self.config.levels,
                ndim=2,
                name=name,
            )
        except ValueError as exc:
            self._count_request("rejected")
            raise InvalidRequestError(str(exc)) from exc
        if arr.shape[1] != self.config.n_stages:
            self._count_request("rejected")
            raise InvalidRequestError(
                f"{name} length {arr.shape[1]} != "
                f"n_stages {self.config.n_stages}"
            )
        return arr

    def _admit_query(self, query) -> np.ndarray:
        arr = np.asarray(query)
        if arr.ndim != 1:
            self._count_request("rejected")
            raise InvalidRequestError(
                f"expected a 1-D query, got shape {arr.shape}"
            )
        return self._admit_matrix(arr, name="query")[0]

    def validate_query(self, query) -> np.ndarray:
        """Validate one query without serving it.

        The front-end's per-request admission hook: coalescing stacks
        queries into one shard call, so a malformed query must be
        rejected at *submit* time -- inside a batch it would fail the
        whole batch and punish its innocent batch-mates.

        Raises:
            InvalidRequestError: Shape, dtype, or level range is wrong.
        """
        return self._admit_query(query)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def run_health_checks(self) -> Dict[str, BreakerState]:
        """Feed each shard's health report to its breaker; map of states."""
        states: Dict[str, BreakerState] = {}
        for shard in self.shards:
            shard.breaker.note_health(shard.array.health_report())
            states[shard.shard_id] = shard.breaker.state
        return states

    def advance_time(self, dt_s: float) -> int:
        """Age every replica and refresh the ones that are due.

        Returns the number of shards refreshed -- the service-level
        housekeeping tick a deployment would run off its scheduler.
        """
        refreshed = 0
        for shard in self.shards:
            shard.array.advance_time(dt_s)
            if shard.array.maybe_refresh():
                refreshed += 1
        return refreshed

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def search(
        self, query: Sequence[int], deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Serve one query within a deadline; retries and fails over.

        Raises:
            InvalidRequestError: The query failed admission.
            DeadlineExceededError: No answer inside the deadline.
            RetryBudgetExhaustedError: (never silently) -- surfaced as
                part of the fallback path when no shard could serve.
            AllShardsUnavailableError: Every shard failed even the
                degraded fallback.
        """
        q = self._admit_query(query)
        return self._serve(
            q[None, :], deadline_s, lambda shard: shard.array.search(q)
        )

    def search_batch(
        self,
        queries: Sequence[Sequence[int]],
        deadline_s: Optional[float] = None,
    ) -> List[ServiceResponse]:
        """Serve a query batch under one shared deadline.

        The batch is routed (and retried) as a unit through the shard's
        vectorized kernel; the answer is one :class:`ServiceResponse`
        per query.
        """
        qs = self._admit_matrix(queries, name="query batch")
        return self._serve(
            qs, deadline_s, lambda shard: shard.array.search_batch(qs)
        )

    def top_k(
        self,
        queries: Sequence[Sequence[int]],
        k: int,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve a batched top-k request under one shared deadline.

        The cheap path: a pristine shard ranks exact mismatch counts
        (no full distance matrix, decode, or energy accounting); a
        degraded shard falls back to ranking its full batched search.
        Same admission, deadline, retry, breaker, and degraded-fallback
        semantics as :meth:`search_batch`.
        """
        qs = self._admit_matrix(queries, name="query batch")
        if not 1 <= k <= self.n_rows:
            self._count_request("rejected")
            raise InvalidRequestError(
                f"k must be in [1, {self.n_rows}], got {k}"
            )
        return self._serve(
            qs, deadline_s, lambda shard: shard.array.top_k_batch(qs, k)
        )

    # The serving core, shared by single, batched, and top-k entry
    # points; :meth:`_respond` shapes the winning shard result into the
    # endpoint's answer.  The span inherits the active request (or
    # batch) context, so routing/retry work is attributable to the
    # request ids it serves.
    def _serve(self, queries: np.ndarray, deadline_s: Optional[float], run):
        if not (_TM.enabled and _TM.tracing):
            return self._serve_inner(queries, deadline_s, run)
        n_queries = int(queries.shape[0]) if queries.ndim == 2 else 1
        with _span("service.serve", queries=n_queries):
            return self._serve_inner(queries, deadline_s, run)

    def _serve_inner(
        self, queries: np.ndarray, deadline_s: Optional[float], run
    ):
        deadline_s = (
            deadline_s if deadline_s is not None else self.default_deadline_s
        )
        if deadline_s <= 0:
            self._count_request("rejected")
            raise InvalidRequestError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        start = self._clock()
        deadline = start + deadline_s
        self.budget.deposit()
        with self._lock:
            self._requests_served += 1
            health_check_due = (
                self.health_check_interval is not None
                and self._requests_served % self.health_check_interval == 0
            )
        if health_check_due:
            self.run_health_checks()
        attempts = 0
        retries = 0
        schedule = self.policy.schedule(self._jitter_rng)
        last_error: Optional[BaseException] = None
        while attempts < self.policy.max_attempts:
            if self._clock() >= deadline:
                self._miss(start, deadline_s, attempts)
            shard = self._route()
            if shard is None:
                break
            attempts += 1
            try:
                result = self._attempt(shard, queries, run)
            except TransientServiceError as exc:
                shard.breaker.record_failure(reason=type(exc).__name__)
                last_error = exc
                if attempts >= self.policy.max_attempts:
                    break
                if not self.budget.try_withdraw():
                    break
                # The jitter stream is shared across requests (that is
                # what decorrelates them); draws must be serialized.
                with self._lock:
                    backoff = schedule.next_backoff_s()
                if self._clock() + backoff >= deadline:
                    break
                retries += 1
                if _TM.enabled:
                    _RETRIES.inc()
                    _emit_probe(
                        "service.retry",
                        shard=shard.shard_id,
                        attempt=attempts,
                        backoff_s=backoff,
                        reason=type(exc).__name__,
                    )
                self._sleep(backoff)
                continue
            shard.breaker.record_success()
            if self._clock() > deadline:
                self._miss(start, deadline_s, attempts)
            return self._respond(
                shard, result, start, attempts, retries, fallback=False
            )
        # No healthy shard answered: explicit degraded best-effort.
        return self._degraded_fallback(
            queries, run, deadline, start, attempts, retries, last_error
        )

    def _attempt(self, shard: Shard, queries: np.ndarray, run):
        for interceptor in shard.interceptors:
            interceptor(shard.shard_id, queries)
        return run(shard)

    def _route(self) -> Optional[Shard]:
        """Round-robin over shards whose breaker admits a request.

        The cursor read-advance is atomic under the service lock so two
        concurrent requests cannot claim the same round-robin slot (a
        lost update would silently pile traffic onto one replica).
        """
        n = len(self.shards)
        for offset in range(n):
            with self._lock:
                index = (self._rr_next + offset) % n
                shard = self.shards[index]
                if shard.breaker.allow():
                    self._rr_next = (index + 1) % n
                    return shard
        return None

    def _degraded_fallback(
        self,
        queries: np.ndarray,
        run,
        deadline: float,
        start: float,
        attempts: int,
        retries: int,
        last_error: Optional[BaseException],
    ):
        """Best-effort answer with the degraded flag set.

        Tried when routing or retries are exhausted: every shard gets
        one direct attempt (quarantined ones included -- an open breaker
        means *prefer others*, not *useless*).  The first answer wins
        and is marked degraded; only if every shard fails does the typed
        error surface.
        """
        for shard in self.shards:
            if self._clock() >= deadline:
                self._miss(start, deadline - start, attempts)
            attempts += 1
            try:
                result = self._attempt(shard, queries, run)
            except TransientServiceError as exc:
                last_error = exc
                continue
            if self._clock() > deadline:
                self._miss(start, deadline - start, attempts)
            return self._respond(
                shard, result, start, attempts, retries, fallback=True
            )
        self._count_request("unavailable")
        raise AllShardsUnavailableError(
            f"no shard could serve the request "
            f"(last error: {last_error!r})"
        ) from last_error

    def _respond(
        self,
        shard: Shard,
        result: Union[
            ResilientSearchResult, ResilientBatchSearchResult, TopKResult
        ],
        start: float,
        attempts: int,
        retries: int,
        fallback: bool,
    ) -> Union[ServiceResponse, List[ServiceResponse]]:
        """The endpoint's answer: one response, or one per batch query."""
        elapsed = self._clock() - start
        degraded = bool(result.degraded) or fallback
        self._count_request(
            "degraded" if degraded else "ok", elapsed, shard.shard_id,
            attempts,
        )
        meta = dict(
            degraded=degraded,
            shard_id=shard.shard_id,
            attempts=attempts,
            retries=retries,
            elapsed_s=elapsed,
        )
        if isinstance(result, TopKResult):
            return ServiceResponse(rows=result.rows, **meta)
        if isinstance(result, ResilientBatchSearchResult):
            return [
                _search_response(result.result(i), meta)
                for i in range(len(result))
            ]
        return _search_response(result, meta)

    def _miss(self, start: float, deadline_s: float, attempts: int) -> None:
        elapsed = self._clock() - start
        if _TM.enabled:
            _DEADLINE_MISSES.inc()
            _emit_probe(
                "service.deadline_miss",
                elapsed_s=elapsed,
                deadline_s=deadline_s,
                attempts=attempts,
            )
        self._count_request("deadline", elapsed)
        raise DeadlineExceededError(
            f"deadline of {deadline_s:.6f}s exceeded after "
            f"{elapsed:.6f}s and {attempts} attempt(s)"
        )

    def _count_request(
        self,
        outcome: str,
        elapsed: Optional[float] = None,
        shard_id: str = "",
        attempts: int = 0,
    ) -> None:
        if not _TM.enabled:
            return
        _REQUESTS.inc(outcome=outcome)
        if elapsed is not None:
            _REQUEST_SECONDS.observe(elapsed)
        if outcome in ("ok", "degraded"):
            _emit_probe(
                "service.request",
                outcome=outcome,
                shard=shard_id,
                attempts=attempts,
                elapsed_s=elapsed,
            )

    def __repr__(self) -> str:
        states = {s.shard_id: s.breaker.state.value for s in self.shards}
        return f"TDAMSearchService({len(self.shards)} shards, {states})"


def _search_response(
    result: ResilientSearchResult, meta: dict
) -> ServiceResponse:
    best = int(result.best_row)
    return ServiceResponse(
        best_row=best,
        best_distance=(
            float(result.hamming_distances[best]) if best >= 0 else -1.0
        ),
        result=result,
        **meta,
    )
