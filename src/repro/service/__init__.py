"""Fault-tolerant serving layer for replicated TD-AM shards.

Wraps :class:`~repro.resilience.resilient.ResilientTDAMArray` replicas
behind a single request surface with the standard reliability toolkit:

- **admission** -- strict input validation and per-request deadlines
  (:class:`TDAMSearchService`), plus overload admission control:
  per-tenant token-bucket quotas and a bounded intake queue with typed
  load shedding (:mod:`repro.service.admission`);
- **encode-then-search** -- raw feature vectors digitized into TD-AM
  query levels through the HDC encode pipeline, optionally on the
  fabric's own integer MVM (:mod:`repro.service.encode`);
- **coalescing** -- a thread-safe concurrent front-end that groups
  compatible single-query requests into one batched shard call,
  bit-exactly (:mod:`repro.service.coalesce`,
  :mod:`repro.service.frontend`);
- **partitioning** -- one logical corpus scattered across disjoint
  row-range partitions, gathered under the global ranking rule with
  honest partial-coverage reporting (:mod:`repro.service.partition`);
- **retries** -- exponential backoff with decorrelated jitter, gated by
  a Finagle-style retry budget (:mod:`repro.service.retry`);
- **circuit breakers** -- per-shard quarantine driven by both request
  outcomes and the resilience loop's BIST health reports
  (:mod:`repro.service.breaker`);
- **degraded mode** -- when no healthy replica remains, an explicit
  best-effort answer carrying the ``degraded`` flag rather than a
  silent wrong one;
- **one answer type** -- every backend answers with a
  :class:`ServiceResponse`, which checks the honesty contract when it
  is built (:mod:`repro.service.response`);
- **crash-safe checkpoints** -- atomic, checksummed snapshots of a
  shard's full physical + repair state, optionally triggered by
  repair/refresh probe events (:mod:`repro.service.checkpoint`);
- **chaos harness** -- scripted failure scenarios with SLO assertions
  (:mod:`repro.service.chaos`, ``repro chaos``);
- **load generation** -- a deterministic open-loop generator scoring
  goodput, shed-rate, latency percentiles, and honesty on a fake clock
  (:mod:`repro.service.loadgen`, ``repro loadtest``).
- **the serving stack** -- the shards, stored corpus and front end
  ``repro serve`` builds, shared with the load generators and the chaos
  harness (:mod:`repro.service.stack`).

The error taxonomy in :mod:`repro.service.errors` is the contract:
transient errors retry, invalid requests reject immediately, overload
sheds carry ``retry_after_s``, and every exhaustion path has a distinct
type.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdmissionController": "admission",
    "AdmissionRejectedError": "errors",
    "AllShardsUnavailableError": "errors",
    "BackoffSchedule": "retry",
    "BreakerState": "breaker",
    "CalibrationDriftError": "errors",
    "ChaosReport": "chaos",
    "ChaosScenarioResult": "chaos",
    "CheckpointCorruptError": "errors",
    "CheckpointError": "errors",
    "CheckpointInfo": "checkpoint",
    "CheckpointNotFoundError": "errors",
    "CircuitBreaker": "breaker",
    "CircuitOpenError": "errors",
    "CoalescePolicy": "coalesce",
    "Coalescer": "coalesce",
    "CoalescingFrontend": "frontend",
    "DEADLINE_SLO": "chaos",
    "DeadlineExceededError": "errors",
    "EncodeSearchService": "encode",
    "FakeClock": "chaos",
    "FrontendFuture": "coalesce",
    "FrontendStats": "frontend",
    "Interceptor": "server",
    "InvalidRequestError": "errors",
    "LoadConfig": "stack",
    "LoadReport": "loadgen",
    "OverloadError": "errors",
    "PartitionedTDAMService": "partition",
    "PendingRequest": "coalesce",
    "QuotaExceededError": "errors",
    "ReadyBatch": "coalesce",
    "ReplicaDivergenceError": "errors",
    "RetryBudget": "retry",
    "RetryBudgetExhaustedError": "errors",
    "RetryPolicy": "retry",
    "ServiceCheckpointer": "checkpoint",
    "ServiceError": "errors",
    "ServiceResponse": "response",
    "Shard": "server",
    "ShardBusyError": "errors",
    "ShardTimeoutError": "errors",
    "TDAMSearchService": "server",
    "TenantReport": "loadgen",
    "TenantQuotas": "admission",
    "TokenBucket": "admission",
    "TransientServiceError": "errors",
    "format_load_report": "loadgen",
    "is_retryable": "errors",
    "run_chaos_suite": "chaos",
    "run_load": "loadgen",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
