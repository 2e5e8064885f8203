"""The overload-robust concurrent front-end.

:class:`CoalescingFrontend` is the layer that makes
:class:`~repro.service.server.TDAMSearchService` (or the partitioned
service) safe to hammer from many threads at once.  Every request walks
the same path::

    submit -> validate -> admission (quota, bounded queue) -> coalesce
           -> [batching window] -> dispatch (one search_batch/top_k
           call) -> per-request futures fulfilled

and every way a request can fail is *typed* and immediate:

- a malformed query raises ``InvalidRequestError`` at submit;
- an over-quota tenant gets ``QuotaExceededError`` with
  ``retry_after_s`` (its excess never touches the queue);
- a full intake queue gets ``OverloadError`` -- the queue is bounded,
  load is shed, latency stays bounded;
- a request whose deadline expires while queued is shed before any
  shard is touched (an ``OverloadError`` with reason
  ``queue_deadline`` -- a shed, not a miss: no work was wasted on it);
- a draining front-end rejects new work with reason ``draining`` while
  every already-admitted request is still served (graceful drain).

Dispatching is serialized (one batch in flight at a time): the shard
kernels are vectorized numpy under the GIL, so concurrent shard calls
buy nothing, while a single dispatch path keeps round-robin routing,
breaker feedback, and the retry jitter stream deterministic.

Two execution modes share all of this logic:

- ``auto_dispatch=True`` (default): a daemon dispatcher thread flushes
  batches when their window expires; full batches are dispatched
  inline by the submitter that completed them.  This is the
  "production" mode; :meth:`search` / :meth:`top_k` block on the
  future.
- ``auto_dispatch=False``: nothing happens until :meth:`pump` -- the
  deterministic mode the load generator, the chaos scenarios, and the
  property tests drive on a fake clock, interleaving submissions and
  flushes any way they like.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.service.admission import AdmissionController
from repro.service.coalesce import (
    CoalescePolicy,
    Coalescer,
    CoalescerClosed,
    FrontendFuture,
    PendingRequest,
    ReadyBatch,
)
from repro.service.errors import (
    AllShardsUnavailableError,
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
    ServiceError,
)
from repro.service.response import ServiceResponse
from repro.telemetry import metrics as _metrics
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.log import get_logger
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.request import (
    RequestContext,
    current_request,
    request_scope,
)
from repro.telemetry.state import STATE as _TM
from repro.telemetry.trace import span as _span

__all__ = ["CoalescingFrontend", "FrontendStats"]

_log = get_logger(__name__)

_REG = _metrics.get_registry()
_FRONTEND_REQUESTS = _REG.counter(
    "frontend_requests_total",
    "Front-end requests completed, by outcome "
    "(ok/degraded/deadline/unavailable/error)",
    labels=("outcome",),
)
_FRONTEND_SHEDS = _REG.counter(
    "frontend_sheds_total",
    "Front-end requests shed, by reason "
    "(quota/queue_full/queue_deadline/draining)",
    labels=("reason",),
)
_BATCH_SIZE = _REG.histogram(
    "frontend_batch_size", "Dispatched coalesced-batch sizes",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
)
_WAIT_SECONDS = _REG.histogram(
    "frontend_wait_seconds",
    "Queue wait between submit and dispatch",
    buckets=_metrics.LATENCY_BUCKETS_S,
)
_LATENCY = _REG.quantile(
    "frontend_latency_seconds",
    "Submit-to-fulfill request latency (streaming quantile sketch)",
)


@dataclass
class FrontendStats:
    """Running counters of one front-end's life.

    ``submitted`` counts every :meth:`CoalescingFrontend.submit` call;
    ``admitted`` the ones that passed admission.  Completions split by
    outcome; sheds split by reason.  A response is *goodput* when its
    outcome is ``ok`` or ``degraded`` (the client got an answer, and a
    degraded one says so).
    """

    submitted: int = 0
    admitted: int = 0
    ok: int = 0
    degraded: int = 0
    deadline_misses: int = 0
    unavailable: int = 0
    errors: int = 0
    shed_quota: int = 0
    shed_queue_full: int = 0
    shed_queue_deadline: int = 0
    shed_draining: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0

    @property
    def sheds(self) -> int:
        """Total requests shed (all reasons)."""
        return (
            self.shed_quota + self.shed_queue_full
            + self.shed_queue_deadline + self.shed_draining
        )

    @property
    def goodput(self) -> int:
        """Requests answered (ok + degraded)."""
        return self.ok + self.degraded

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size (0.0 before any dispatch)."""
        return self.batched_requests / self.batches if self.batches else 0.0


class CoalescingFrontend:
    """Thread-safe, admission-controlled, coalescing request front-end.

    Args:
        service: The backend -- anything exposing ``validate_query``,
            ``search_batch(queries, deadline_s=...)``,
            ``top_k(queries, k, deadline_s=...)``, ``n_rows``, and
            ``default_deadline_s`` (both the replicated and the
            partitioned service qualify).
        policy: Batching window / size (default
            :class:`~repro.service.coalesce.CoalescePolicy`).
        admission: Quota + bounded-queue controller; by default a
            256-deep queue with unlimited tenant quotas and the
            batching window as the overload ``retry_after_s`` hint.
        clock: Monotonic time source (injected for determinism).
        auto_dispatch: Run the dispatcher thread (see module docs).
        name: Label for logs.
        flight_recorder: Optional tail-sampling
            :class:`~repro.telemetry.flight.FlightRecorder`; every
            completed or shed request is offered to it (with its
            submit/dispatch span trees when tracing is on).
    """

    def __init__(
        self,
        service,
        policy: Optional[CoalescePolicy] = None,
        admission: Optional[AdmissionController] = None,
        clock: Optional[Callable[[], float]] = None,
        auto_dispatch: bool = True,
        name: str = "frontend",
        flight_recorder: Optional[FlightRecorder] = None,
    ) -> None:
        if clock is None:
            import time

            clock = time.monotonic
        self.service = service
        self.policy = policy if policy is not None else CoalescePolicy()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                overload_retry_after_s=self.policy.window_s
            )
        )
        self.name = name
        self.flight_recorder = flight_recorder
        self._clock = clock
        self._coalescer = Coalescer(self.policy)
        self._ready: List[ReadyBatch] = []
        self._lock = threading.Lock()          # stats + ready backlog
        self._dispatch_lock = threading.Lock()  # one batch in flight
        self._stats = FrontendStats()
        self._draining = False
        self._drained = False
        self._drain_lock = threading.Lock()
        self._auto = auto_dispatch
        self._stop = False
        self._cond = threading.Condition()
        self._dispatcher: Optional[threading.Thread] = None
        if auto_dispatch:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name=f"{name}-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched."""
        with self._lock:
            backlog = sum(len(b) for b in self._ready)
        return self._coalescer.depth + backlog

    def stats(self) -> FrontendStats:
        """A point-in-time copy of the running counters."""
        with self._lock:
            return dataclasses.replace(self._stats)

    def next_flush_due(self) -> Optional[float]:
        """Earliest clock time a pending batch must flush (None: idle).

        Ready-but-undispatched batches (manual mode) are due
        immediately, reported at their oldest enqueue time.
        """
        with self._lock:
            backlog_due = min(
                (b.oldest_enqueued_at for b in self._ready), default=None
            )
        pending_due = self._coalescer.next_due()
        if backlog_due is None:
            return pending_due
        if pending_due is None:
            return backlog_due
        return min(backlog_due, pending_due)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Sequence[int],
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        deadline_at: Optional[float] = None,
    ) -> FrontendFuture:
        """Admit one search request; returns its future.

        Args:
            query: One 1-D query vector.
            tenant: Quota bucket the request charges.
            deadline_s: Deadline relative to *now* (default: the
                service's ``default_deadline_s``).
            deadline_at: Absolute deadline on the front-end clock
                (overrides ``deadline_s``; an open-loop load generator
                uses this to date deadlines from nominal arrival times).

        Raises:
            InvalidRequestError: Malformed query (checked at submit so
                a bad query can never poison its batch-mates).
            QuotaExceededError: The tenant's bucket is empty.
            OverloadError: Queue full, deadline already past, or the
                front-end is draining.
        """
        return self._submit(
            "search", query, tenant, deadline_s, deadline_at, k=0
        )

    def submit_top_k(
        self,
        query: Sequence[int],
        k: int,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        deadline_at: Optional[float] = None,
    ) -> FrontendFuture:
        """Admit one top-k request; returns its future.

        Same admission and shedding semantics as :meth:`submit`;
        requests coalesce only with other top-k requests of the same
        ``k``.
        """
        if not 1 <= k <= self.service.n_rows:
            raise InvalidRequestError(
                f"k must be in [1, {self.service.n_rows}], got {k}"
            )
        return self._submit(
            "topk", query, tenant, deadline_s, deadline_at, k=k
        )

    def _submit(
        self,
        kind: str,
        query,
        tenant: str,
        deadline_s: Optional[float],
        deadline_at: Optional[float],
        k: int,
    ) -> FrontendFuture:
        with self._lock:
            self._stats.submitted += 1
        q = self.service.validate_query(query)
        now = self._clock()
        if deadline_at is None:
            rel = (
                deadline_s
                if deadline_s is not None
                else self.service.default_deadline_s
            )
            if rel <= 0:
                raise InvalidRequestError(
                    f"deadline_s must be > 0, got {rel}"
                )
            deadline_at = now + rel
        if not _TM.enabled:
            return self._admit(kind, q, tenant, deadline_at, now, k,
                               None, None)
        # A caller-provided scope (a load generator pinning ids) wins;
        # otherwise the front end mints the request's identity here.
        ctx = current_request()
        if ctx is None:
            ctx = RequestContext.new(tenant=tenant, deadline_at=deadline_at)
        with request_scope(ctx):
            with _span(
                "frontend.submit", kind=kind, deadline_at=deadline_at
            ) as sp:
                if sp is not None:
                    # Flow edge: picked up by the dispatch span, which
                    # may run on another thread.
                    sp.add_flow_out(ctx.request_id)
                return self._admit(kind, q, tenant, deadline_at, now, k,
                                   ctx, sp)

    def _admit(
        self,
        kind: str,
        q,
        tenant: str,
        deadline_at: float,
        now: float,
        k: int,
        ctx,
        submit_span,
    ) -> FrontendFuture:
        if self._draining:
            self._count_shed("draining", tenant, 0.0)
            self.admission.count(
                "shed_draining", tenant, self.queue_depth, 0.0
            )
            self._offer_flight(ctx, tenant, "shed", None, now,
                               (submit_span,), reason="draining")
            raise OverloadError(
                "front-end is draining; no new requests admitted",
                retry_after_s=0.0,
                reason="draining",
                tenant=tenant,
            )
        try:
            self.admission.admit(tenant, self.queue_depth)
        except OverloadError:
            self._count_shed("queue_full", tenant, 0.0)
            self._offer_flight(ctx, tenant, "shed", None, now,
                               (submit_span,), reason="queue_full")
            raise
        except ServiceError:
            self._count_shed("quota", tenant, 0.0)
            self._offer_flight(ctx, tenant, "shed", None, now,
                               (submit_span,), reason="quota")
            raise
        if deadline_at <= now:
            # Dead on arrival: shed before it can waste queue space or
            # shard time (counts as a shed, not a deadline miss).
            self._count_shed("queue_deadline", tenant, 0.0)
            self.admission.count(
                "shed_queue_deadline", tenant, self.queue_depth, 0.0
            )
            self._offer_flight(ctx, tenant, "shed", None, now,
                               (submit_span,), reason="queue_deadline")
            raise OverloadError(
                "deadline already past at submission",
                retry_after_s=0.0,
                reason="queue_deadline",
                tenant=tenant,
            )
        with self._lock:
            self._stats.admitted += 1
        request = PendingRequest(
            kind=kind,
            query=q,
            tenant=tenant,
            deadline_at=deadline_at,
            enqueued_at=now,
            k=k,
            ctx=ctx,
            submit_span=submit_span,
        )
        if ctx is not None:
            request.future.request_id = ctx.request_id
        try:
            full_batch = self._coalescer.add(request)
        except CoalescerClosed:
            # The submit raced a concurrent drain: it passed the
            # _draining check before drain() set the flag, but the
            # coalescer has already been flushed.  Enqueueing would
            # strand the future forever; shed it with the same typed
            # error an un-raced draining submit gets.
            self._count_shed("draining", tenant, now)
            self.admission.count(
                "shed_draining", tenant, self.queue_depth, 0.0
            )
            self._offer_flight(ctx, tenant, "shed", None, now,
                               (submit_span,), reason="draining")
            raise OverloadError(
                "front-end is draining; no new requests admitted",
                retry_after_s=0.0,
                reason="draining",
                tenant=tenant,
            ) from None
        if full_batch is not None:
            if self._auto:
                self._dispatch(full_batch)
            else:
                with self._lock:
                    self._ready.append(full_batch)
        elif self._auto:
            with self._cond:
                self._cond.notify()
        return request.future

    # Blocking conveniences (dispatcher mode only).
    def search(
        self,
        query: Sequence[int],
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = 30.0,
    ):
        """Submit one query and block for its response.

        Requires ``auto_dispatch=True`` (there is nobody else to flush
        the window otherwise); manual mode uses :meth:`submit` +
        :meth:`pump`.
        """
        if not self._auto:
            raise RuntimeError(
                "blocking search() needs auto_dispatch=True; "
                "use submit() + pump() in manual mode"
            )
        return self.submit(
            query, tenant=tenant, deadline_s=deadline_s
        ).result(timeout)

    def top_k(
        self,
        query: Sequence[int],
        k: int,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = 30.0,
    ):
        """Submit one top-k query and block for its response."""
        if not self._auto:
            raise RuntimeError(
                "blocking top_k() needs auto_dispatch=True; "
                "use submit_top_k() + pump() in manual mode"
            )
        return self.submit_top_k(
            query, k, tenant=tenant, deadline_s=deadline_s
        ).result(timeout)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """Dispatch every batch that is full or past its window.

        The manual-mode heartbeat (and the dispatcher thread's body).
        Returns the number of requests dispatched or shed.
        """
        now = self._clock() if now is None else now
        with self._lock:
            batches, self._ready = self._ready, []
        batches.extend(self._coalescer.pop_due(now))
        n = 0
        for batch in batches:
            n += len(batch)
            self._dispatch(batch)
        return n

    def drain(self) -> int:
        """Stop intake, flush every pending request, stop the thread.

        Graceful shutdown: already-admitted requests are served (or
        shed if their deadline has passed), new submissions are
        rejected with a typed ``draining`` error.  Idempotent: the
        first call drains; concurrent callers block until it finishes
        and every later call is a no-op returning 0 (no duplicate
        probe, log line, or dispatcher join).  A submit racing the
        drain is shed with the same typed ``draining`` error, never
        stranded (see :class:`~repro.service.coalesce.CoalescerClosed`).
        Returns the number of requests flushed by this call.
        """
        self._draining = True
        with self._drain_lock:
            if self._drained:
                return 0
            self._drained = True
            if self._auto:
                self._stop_dispatcher()
            with self._lock:
                batches, self._ready = self._ready, []
            batches.extend(self._coalescer.close("drain"))
            n = 0
            for batch in batches:
                n += len(batch)
                self._dispatch(batch)
            if _TM.enabled:
                _emit_probe("frontend.drain", pending_flushed=n)
            _log.info(
                # "name" is reserved on LogRecord; "frontend" carries
                # it.
                "front-end drained",
                extra={"frontend": self.name, "flushed": n},
            )
            return n

    close = drain

    def __enter__(self) -> "CoalescingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    def _stop_dispatcher(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            # A drain initiated from a dispatcher-thread callback must
            # not join itself; the loop exits on its own via _stop.
            if dispatcher is not threading.current_thread():
                dispatcher.join(timeout=5.0)
            self._dispatcher = None

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                if self._stop:
                    return
                due = self.next_flush_due()
                now = self._clock()
                if due is None:
                    self._cond.wait()
                    continue
                if due > now:
                    self._cond.wait(timeout=due - now)
                    continue
            self.pump()

    def _dispatch(self, batch: ReadyBatch) -> None:
        """Serve one flushed batch; fulfill every member's future."""
        with self._dispatch_lock:
            now = self._clock()
            live: List[PendingRequest] = []
            stale: List[PendingRequest] = []
            for request in batch.requests:
                if request.deadline_at > now:
                    live.append(request)
                else:
                    stale.append(request)
            for request in stale:
                # Shed before the shard: its client is already gone.
                self._count_shed("queue_deadline", request.tenant, now)
                self.admission.count(
                    "shed_queue_deadline", request.tenant,
                    self.queue_depth, 0.0,
                )
                request.future.set_exception(
                    OverloadError(
                        "deadline expired while queued",
                        retry_after_s=0.0,
                        reason="queue_deadline",
                        tenant=request.tenant,
                    ),
                    completed_at=now,
                )
                self._offer_flight(
                    request.ctx, request.tenant, "shed",
                    now - request.enqueued_at, now,
                    (request.submit_span,), reason="queue_deadline",
                )
            if _TM.enabled:
                _BATCH_SIZE.observe(float(len(live)))
                _WAIT_SECONDS.observe(now - batch.oldest_enqueued_at)
                _emit_probe(
                    "coalesce.flush",
                    kind=batch.kind,
                    size=len(live),
                    reason=batch.reason,
                    waited_s=now - batch.oldest_enqueued_at,
                    shed_stale=len(stale),
                )
            with self._lock:
                self._stats.batches += 1
                self._stats.batched_requests += len(live)
                self._stats.max_batch_size = max(
                    self._stats.max_batch_size, len(live)
                )
            if not live:
                return
            queries = np.stack([r.query for r in live])
            # The batch runs under the tightest member deadline still
            # alive -- a late answer would miss for *someone*, and one
            # shard call can only carry one deadline.
            deadline_s = min(r.deadline_at for r in live) - now
            # One batch context covers the whole dispatch: a lone
            # member keeps its own identity end-to-end; a multi-member
            # batch gets a batch id carrying every member id as
            # baggage, so partition/index/kernel spans and logs under
            # this scope name all of them.
            member_ids = [
                r.ctx.request_id for r in live if r.ctx is not None
            ]
            if len(live) == 1 and live[0].ctx is not None:
                batch_ctx = live[0].ctx
            elif member_ids:
                batch_ctx = RequestContext.new(
                    prefix="batch", request_ids=member_ids
                )
            else:
                batch_ctx = None
            with request_scope(batch_ctx) if batch_ctx is not None \
                    else nullcontext():
                with _span(
                    "frontend.dispatch",
                    kind=batch.kind,
                    size=len(live),
                    request_ids=member_ids,
                ) as batch_span:
                    if batch_span is not None:
                        for rid in member_ids:
                            # Close the flow arrows opened at submit,
                            # across the thread hop.
                            batch_span.add_flow_in(rid)
                    # Inside the batch scope: the context filter stamps
                    # the batch's request_id onto the record, so a
                    # request's log lines grep by the same id as its
                    # spans.
                    _log.debug(
                        "batch dispatched",
                        extra={"kind": batch.kind, "size": len(live)},
                    )
                    try:
                        if batch.kind == "search":
                            responses = self.service.search_batch(
                                queries, deadline_s=deadline_s
                            )
                        else:
                            grouped = self.service.top_k(
                                queries, batch.k, deadline_s=deadline_s
                            )
                            responses = [
                                grouped.for_query(i)
                                for i in range(len(live))
                            ]
                    except ServiceError as exc:
                        done = self._clock()
                        for request in live:
                            self._complete_error(
                                request, exc, done, len(live), batch_span
                            )
                        return
                    done = self._clock()
                    for request, response in zip(live, responses):
                        self._complete_ok(
                            request, response, done, len(live), batch_span
                        )

    # ------------------------------------------------------------------
    # Completion accounting
    # ------------------------------------------------------------------
    def _complete_ok(
        self,
        request: PendingRequest,
        response: ServiceResponse,
        done: float,
        batch: int,
        batch_span=None,
    ) -> None:
        outcome = response.outcome
        with self._lock:
            if response.degraded:
                self._stats.degraded += 1
            else:
                self._stats.ok += 1
        self._count_request(outcome, request, done, batch)
        request.future.set_result(response, completed_at=done)
        self._offer_flight(
            request.ctx, request.tenant, outcome,
            done - request.enqueued_at, done,
            (request.submit_span, batch_span),
        )

    def _complete_error(
        self,
        request: PendingRequest,
        exc: ServiceError,
        done: float,
        batch: int,
        batch_span=None,
    ) -> None:
        if isinstance(exc, DeadlineExceededError):
            outcome = "deadline"
        elif isinstance(exc, AllShardsUnavailableError):
            outcome = "unavailable"
        else:
            outcome = "error"
        with self._lock:
            if outcome == "deadline":
                self._stats.deadline_misses += 1
            elif outcome == "unavailable":
                self._stats.unavailable += 1
            else:
                self._stats.errors += 1
        self._count_request(outcome, request, done, batch)
        request.future.set_exception(exc, completed_at=done)
        self._offer_flight(
            request.ctx, request.tenant, outcome,
            done - request.enqueued_at, done,
            (request.submit_span, batch_span),
            error=repr(exc),
        )

    def _count_request(
        self, outcome: str, request: PendingRequest, done: float, batch: int
    ) -> None:
        if not _TM.enabled:
            return
        _FRONTEND_REQUESTS.inc(outcome=outcome)
        _LATENCY.observe(done - request.enqueued_at)
        _emit_probe(
            "frontend.request",
            outcome=outcome,
            tenant=request.tenant,
            elapsed_s=done - request.enqueued_at,
            batch_size=batch,
        )

    def _offer_flight(
        self, ctx, tenant, outcome, latency_s, at, spans, **annotations
    ) -> None:
        """Hand one finished/shed request to the flight recorder."""
        recorder = self.flight_recorder
        if recorder is None or ctx is None:
            return
        recorder.offer(
            ctx.request_id, tenant, outcome, latency_s, at,
            spans=spans, **annotations,
        )

    def _count_shed(self, reason: str, tenant: str, now: float) -> None:
        with self._lock:
            if reason == "quota":
                self._stats.shed_quota += 1
            elif reason == "queue_full":
                self._stats.shed_queue_full += 1
            elif reason == "queue_deadline":
                self._stats.shed_queue_deadline += 1
            else:
                self._stats.shed_draining += 1
        if _TM.enabled:
            _FRONTEND_SHEDS.inc(reason=reason)

    def __repr__(self) -> str:
        return (
            f"CoalescingFrontend({self.name!r}, depth={self.queue_depth}, "
            f"window={self.policy.window_s}s, "
            f"max_batch={self.policy.max_batch}, "
            f"{'auto' if self._auto else 'manual'})"
        )
