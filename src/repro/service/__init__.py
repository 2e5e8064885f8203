"""Fault-tolerant serving layer for replicated TD-AM shards.

Wraps :class:`~repro.resilience.resilient.ResilientTDAMArray` replicas
behind a single request surface with the standard reliability toolkit:

- **admission** -- strict input validation and per-request deadlines
  (:class:`TDAMSearchService`), plus overload admission control:
  per-tenant token-bucket quotas and a bounded intake queue with typed
  load shedding (:mod:`repro.service.admission`);
- **encode-then-search** -- raw feature vectors digitized into TD-AM
  query levels through the HDC encode pipeline, optionally on the
  fabric's own bit-serial MVM kernels (:mod:`repro.service.encode`);
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

The error taxonomy in :mod:`repro.service.errors` is the contract:
transient errors retry, invalid requests reject immediately, overload
sheds carry ``retry_after_s``, and every exhaustion path has a distinct
type.
"""

from repro.service.admission import (
    AdmissionController,
    TenantQuotas,
    TokenBucket,
)
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.chaos import (
    ChaosReport,
    ChaosScenarioResult,
    DEADLINE_SLO,
    FakeClock,
    run_chaos_suite,
)
from repro.service.checkpoint import CheckpointInfo, ServiceCheckpointer
from repro.service.coalesce import (
    CoalescePolicy,
    Coalescer,
    FrontendFuture,
    PendingRequest,
    ReadyBatch,
)
from repro.service.errors import (
    AdmissionRejectedError,
    AllShardsUnavailableError,
    CalibrationDriftError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    CircuitOpenError,
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
    QuotaExceededError,
    ReplicaDivergenceError,
    RetryBudgetExhaustedError,
    ServiceError,
    ShardBusyError,
    ShardTimeoutError,
    TransientServiceError,
    is_retryable,
)
from repro.service.encode import EncodeSearchService
from repro.service.frontend import CoalescingFrontend, FrontendStats
from repro.service.loadgen import (
    LoadConfig,
    LoadReport,
    TenantReport,
    format_load_report,
    run_load,
)
from repro.service.partition import PartitionedTDAMService
from repro.service.retry import BackoffSchedule, RetryBudget, RetryPolicy
from repro.service.response import ServiceResponse
from repro.service.server import Interceptor, Shard, TDAMSearchService

__all__ = [
    "AdmissionController",
    "AdmissionRejectedError",
    "AllShardsUnavailableError",
    "BackoffSchedule",
    "BreakerState",
    "CalibrationDriftError",
    "ChaosReport",
    "ChaosScenarioResult",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointNotFoundError",
    "CircuitBreaker",
    "CircuitOpenError",
    "CoalescePolicy",
    "Coalescer",
    "CoalescingFrontend",
    "DEADLINE_SLO",
    "DeadlineExceededError",
    "EncodeSearchService",
    "FakeClock",
    "FrontendFuture",
    "FrontendStats",
    "Interceptor",
    "InvalidRequestError",
    "LoadConfig",
    "LoadReport",
    "OverloadError",
    "PartitionedTDAMService",
    "PendingRequest",
    "QuotaExceededError",
    "ReadyBatch",
    "ReplicaDivergenceError",
    "RetryBudget",
    "RetryBudgetExhaustedError",
    "RetryPolicy",
    "ServiceCheckpointer",
    "ServiceError",
    "ServiceResponse",
    "Shard",
    "ShardBusyError",
    "ShardTimeoutError",
    "TDAMSearchService",
    "TenantReport",
    "TenantQuotas",
    "TokenBucket",
    "TransientServiceError",
    "format_load_report",
    "is_retryable",
    "run_chaos_suite",
    "run_load",
]
