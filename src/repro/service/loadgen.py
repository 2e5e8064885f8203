"""Open-loop load generation against the coalescing front-end.

A closed-loop tester (send, wait, send) slows down exactly when the
service does, flattering it at the worst moment -- the *coordinated
omission* trap.  This generator is **open-loop**: arrivals are a seeded
Poisson process whose nominal times are fixed up front and do not care
how the service is doing; a request that arrives while the service is
drowning is offered anyway, and its latency is measured from its
*nominal* arrival, so queueing delay is charged to the service, never
hidden.

Everything runs on a :class:`~repro.service.chaos.FakeClock`: shard
attempts cost simulated time through an interceptor, the batching
window and quota refill run on the same clock, and a run is
bit-deterministic given its seed -- CI can assert exact shedding and
honesty behavior with zero wall-clock flakiness.

Honesty is scored the way the chaos harness scores it: every goodput
response claiming ``degraded=False`` is checked bit-exactly against a
direct (uncoalesced) call recorded before the run; any disagreement
counts as ``wrong_unflagged`` and fails the run's honesty SLO.

The seeded traffic (:func:`derive_traffic`), the reference answers, the
outcome tally and the report assembly are shared with the socket
generator in :mod:`repro.net.loadgen`, which differs only in how a
request reaches the front end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# A load test's exposition lists every serving metric family, and the
# partitioned gather's register only when its module loads.
import repro.service.partition  # noqa: F401
from repro.core.config import TDAMConfig
from repro.service.admission import AdmissionController, TenantQuotas
from repro.service.chaos import FakeClock
from repro.service.coalesce import CoalescePolicy
from repro.service.errors import (
    AdmissionRejectedError,
    AllShardsUnavailableError,
    DeadlineExceededError,
)
from repro.service.frontend import CoalescingFrontend
from repro.service.response import ServiceResponse
from repro.service.server import TDAMSearchService
from repro.service.stack import LoadConfig, build_shards, draw_stored
from repro.telemetry import metrics as _metrics
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.slo import SLOEngine
from repro.telemetry.state import STATE as _TM

__all__ = [
    "LoadConfig",
    "LoadReport",
    "TenantReport",
    "Traffic",
    "derive_traffic",
    "run_load",
    "format_load_report",
]

_REG = _metrics.get_registry()
#: Honesty accounting, by verdict -- ``exact`` (bit-identical to the
#: direct reference), ``degraded_flagged`` (worse but honestly marked),
#: ``wrong_unflagged`` (the SLO breach: a wrong answer sold as exact).
_ANSWERS = _REG.counter(
    "loadtest_answers_total",
    "Load-test answers scored, by honesty verdict "
    "(exact/degraded_flagged/wrong_unflagged)",
    labels=("verdict",),
)


@dataclass
class TenantReport:
    """One tenant's slice of the run."""

    offered: int = 0
    admitted: int = 0
    answered: int = 0
    shed_quota: int = 0
    shed_overload: int = 0


@dataclass(frozen=True)
class LoadReport:
    """What the run measured.

    ``offered`` splits into ``admitted`` plus the typed sheds; admitted
    requests resolve into the outcome counts.  *Goodput* is
    ``ok + degraded`` (the client got an answer, honestly flagged);
    ``wrong_unflagged`` is the honesty SLO and must be zero.  Latency
    percentiles cover goodput responses, measured from nominal arrival
    (coordinated-omission-free).
    """

    config: LoadConfig
    offered: int
    admitted: int
    shed_quota: int
    shed_queue_full: int
    shed_queue_deadline: int
    ok: int
    degraded: int
    deadline_misses: int
    unavailable: int
    errors: int
    wrong_unflagged: int
    p50_s: float
    p99_s: float
    mean_batch_size: float
    batches: int
    simulated_s: float
    tenants: Dict[str, TenantReport] = field(default_factory=dict)
    p95_s: float = 0.0
    #: Exact p99 as an order statistic (``sorted[floor(0.99*(n-1))]``,
    #: the sketch's own rank convention) -- the value the sketch's
    #: relative-error bound is stated against, unlike the interpolated
    #: ``p99_s``.
    p99_rank_s: float = 0.0
    #: Streaming-sketch estimates of the same latency population --
    #: reported side by side with the exact percentiles so the sketch's
    #: relative-error bound is checkable from the artifact alone.
    sketch_p50_s: Optional[float] = None
    sketch_p95_s: Optional[float] = None
    sketch_p99_s: Optional[float] = None
    sketch_relative_accuracy: Optional[float] = None
    #: Request ids of admitted requests that did *not* produce goodput
    #: (deadline / unavailable / error / queue sheds) -- the tail the
    #: flight recorder should have retained.
    tail_request_ids: Tuple[str, ...] = ()

    @property
    def goodput(self) -> int:
        """Requests answered (ok + degraded)."""
        return self.ok + self.degraded

    @property
    def sheds(self) -> int:
        """Requests shed at admission or in queue (all reasons)."""
        return (
            self.shed_quota + self.shed_queue_full + self.shed_queue_deadline
        )

    @property
    def shed_rate(self) -> float:
        """Fraction of offered load shed."""
        return self.sheds / self.offered if self.offered else 0.0

    @property
    def goodput_qps(self) -> float:
        """Answered requests per simulated second."""
        return self.goodput / self.simulated_s if self.simulated_s else 0.0

    @property
    def honest(self) -> bool:
        """The honesty SLO: no wrong answer escaped unflagged."""
        return self.wrong_unflagged == 0

    def to_dict(self) -> dict:
        """A JSON-ready summary (CI artifact format)."""
        cfg = self.config
        return {
            "config": {
                "duration_s": cfg.duration_s,
                "rate_per_s": cfg.rate_per_s,
                "deadline_s": cfg.deadline_s,
                "n_tenants": cfg.n_tenants,
                "max_queue_depth": cfg.max_queue_depth,
                "window_s": cfg.window_s,
                "max_batch": cfg.max_batch,
                "kind": cfg.kind,
                "seed": cfg.seed,
            },
            "offered": self.offered,
            "admitted": self.admitted,
            "goodput": self.goodput,
            "goodput_qps": self.goodput_qps,
            "sheds": {
                "quota": self.shed_quota,
                "queue_full": self.shed_queue_full,
                "queue_deadline": self.shed_queue_deadline,
                "rate": self.shed_rate,
            },
            "outcomes": {
                "ok": self.ok,
                "degraded": self.degraded,
                "deadline": self.deadline_misses,
                "unavailable": self.unavailable,
                "error": self.errors,
            },
            "honesty": {
                "wrong_unflagged": self.wrong_unflagged,
                "honest": self.honest,
            },
            "latency": {
                "p50_s": self.p50_s,
                "p95_s": self.p95_s,
                "p99_s": self.p99_s,
                "p99_rank_s": self.p99_rank_s,
                "sketch": {
                    "p50_s": self.sketch_p50_s,
                    "p95_s": self.sketch_p95_s,
                    "p99_s": self.sketch_p99_s,
                    "relative_accuracy": self.sketch_relative_accuracy,
                },
            },
            "tail_request_ids": list(self.tail_request_ids),
            "coalescing": {
                "batches": self.batches,
                "mean_batch_size": self.mean_batch_size,
            },
            "tenants": {
                name: {
                    "offered": t.offered,
                    "admitted": t.admitted,
                    "answered": t.answered,
                    "shed_quota": t.shed_quota,
                    "shed_overload": t.shed_overload,
                }
                for name, t in sorted(self.tenants.items())
            },
        }

    def to_json(self) -> str:
        """The :meth:`to_dict` summary as indented JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class Traffic:
    """One seeded run's corpus and open-loop arrival schedule.

    Attributes:
        stored: The stored matrix, (n_rows, n_stages).
        pool: Distinct queries requests draw from, (pool_size, n_stages).
        arrivals: Nominal arrival times in ``[0, duration_s)``.
        tenants: Each arrival's tenant (``t0`` ..).
        query_ids: Each arrival's pool index.
    """

    stored: np.ndarray
    pool: np.ndarray
    arrivals: List[float]
    tenants: List[str]
    query_ids: List[int]


def derive_traffic(config: LoadConfig, service) -> Traffic:
    """The run's corpus and arrivals, derived from the seed alone.

    One rng in one draw order (stored matrix, query pool, arrival gaps,
    tenants, pool picks), sized by ``service``'s geometry, so a server
    and a load generator in different processes derive identical
    traffic from the same seed.
    """
    levels, n_stages = service.config.levels, service.config.n_stages
    rng = np.random.default_rng(config.seed)
    stored = draw_stored(rng, service)
    pool = rng.integers(0, levels, (config.pool_size, n_stages))
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / config.rate_per_s)
        if t >= config.duration_s:
            break
        arrivals.append(t)
    weights = (
        np.asarray(config.tenant_weights, dtype=float)
        if config.tenant_weights is not None
        else np.ones(config.n_tenants)
    )
    weights = weights / weights.sum()
    tenant_ids = rng.choice(config.n_tenants, size=len(arrivals), p=weights)
    query_ids = rng.integers(0, config.pool_size, size=len(arrivals))
    return Traffic(
        stored=stored,
        pool=pool,
        arrivals=arrivals,
        tenants=[f"t{i}" for i in tenant_ids.tolist()],
        query_ids=query_ids.tolist(),
    )


def _build_service(
    config: LoadConfig, clock: FakeClock
) -> TDAMSearchService:
    """A replicated fake-clock service with the simulated cost model."""
    shards = build_shards(
        TDAMConfig(n_stages=config.n_stages),
        config.n_rows,
        n_shards=config.n_shards,
        n_spares=2,
        seed=config.seed,
    )
    service = TDAMSearchService(
        shards,
        clock=clock.now,
        sleep=clock.sleep,
        default_deadline_s=config.deadline_s,
    )

    def cost(shard_id: str, queries: np.ndarray) -> None:
        clock.advance(
            config.attempt_base_s
            + config.attempt_per_query_s * queries.shape[0]
        )

    service.add_interceptor(cost)
    return service


def _prepare(
    config: LoadConfig, service
) -> Tuple[Traffic, List[ServiceResponse]]:
    """Store the seeded corpus in ``service``; return the traffic and
    each pool query's direct (uncoalesced) reference answer.

    The batched engine makes coalesced answers bit-exact against these
    references, so any honest ``degraded=False`` answer must match.
    """
    traffic = derive_traffic(config, service)
    service.write_all(traffic.stored)
    if config.kind == "search":
        reference = [
            service.search(query, deadline_s=10.0) for query in traffic.pool
        ]
    else:
        reference = [
            service.top_k(query[None, :], config.k, deadline_s=10.0)
            .for_query(0)
            for query in traffic.pool
        ]
    return traffic, reference


def _matches_reference(
    response: ServiceResponse, reference: ServiceResponse
) -> bool:
    """Whether an answer claiming ``degraded=False`` equals the direct one.

    Top-k compares ``rows``; search compares ``best_row`` and
    ``best_distance``, plus the whole distance vector when the answer
    carries the shard-level ``result`` (in process; the wire drops it).
    """
    if reference.rows is not None:
        return np.array_equal(response.rows, reference.rows)
    if (response.best_row, response.best_distance) != (
        reference.best_row, reference.best_distance
    ):
        return False
    return response.result is None or np.array_equal(
        response.result.hamming_distances,
        reference.result.hamming_distances,
    )


class _Tally:
    """One run's outcomes, overall and per tenant, and its report."""

    def __init__(self, config: LoadConfig) -> None:
        self.config = config
        self.tenants: Dict[str, TenantReport] = {
            f"t{i}": TenantReport() for i in range(config.n_tenants)
        }
        self.admitted = 0
        self.shed_quota = self.shed_queue_full = self.shed_queue_deadline = 0
        self.ok = self.degraded = self.deadline_misses = 0
        self.unavailable = self.errors = self.wrong_unflagged = 0
        self.latencies: List[float] = []
        self.sketch = QuantileSketch(relative_accuracy=0.01)

    def shed(self, tenant: str, reason: str) -> None:
        """A request refused before admission, by shed reason."""
        report = self.tenants[tenant]
        if reason == "quota":
            self.shed_quota += 1
            report.shed_quota += 1
            return
        if reason == "queue_deadline":
            self.shed_queue_deadline += 1
        else:
            self.shed_queue_full += 1
        report.shed_overload += 1

    def admit(self, tenant: str) -> None:
        """A request that passed admission."""
        self.admitted += 1
        self.tenants[tenant].admitted += 1

    def fail(self, tenant: str, exc: BaseException) -> None:
        """An admitted request that ended without an answer."""
        if isinstance(exc, DeadlineExceededError):
            self.deadline_misses += 1
        elif isinstance(exc, AllShardsUnavailableError):
            self.unavailable += 1
        elif (
            isinstance(exc, AdmissionRejectedError)
            and exc.reason == "queue_deadline"
        ):
            # Admitted, then shed in queue: its deadline expired
            # before dispatch and no shard time was spent on it.
            self.shed_queue_deadline += 1
            self.tenants[tenant].shed_overload += 1
        else:
            self.errors += 1

    def answer(
        self,
        tenant: str,
        latency: float,
        response: ServiceResponse,
        reference: ServiceResponse,
    ) -> str:
        """Score one answer; returns its honesty verdict."""
        self.tenants[tenant].answered += 1
        self.latencies.append(latency)
        self.sketch.add(max(latency, 0.0))
        if response.degraded:
            self.degraded += 1
            return "degraded_flagged"
        self.ok += 1
        if _matches_reference(response, reference):
            return "exact"
        # Goodput claimed exact but disagreed with the oracle: the one
        # number the honesty SLO exists to keep at 0.
        self.wrong_unflagged += 1
        return "wrong_unflagged"

    def report(self, simulated_s: float, **extra) -> LoadReport:
        """The scored :class:`LoadReport` (``extra``: batching stats
        and tail ids, which only the in-process run observes)."""
        lat = np.asarray(self.latencies or [0.0])
        return LoadReport(
            config=self.config,
            offered=sum(t.offered for t in self.tenants.values()),
            admitted=self.admitted,
            shed_quota=self.shed_quota,
            shed_queue_full=self.shed_queue_full,
            shed_queue_deadline=self.shed_queue_deadline,
            ok=self.ok,
            degraded=self.degraded,
            deadline_misses=self.deadline_misses,
            unavailable=self.unavailable,
            errors=self.errors,
            wrong_unflagged=self.wrong_unflagged,
            p50_s=float(np.percentile(lat, 50)),
            p99_s=float(np.percentile(lat, 99)),
            simulated_s=simulated_s,
            tenants=self.tenants,
            p95_s=float(np.percentile(lat, 95)),
            p99_rank_s=float(
                np.sort(lat)[int(math.floor(0.99 * (lat.size - 1)))]
            ),
            sketch_p50_s=self.sketch.quantile(0.50),
            sketch_p95_s=self.sketch.quantile(0.95),
            sketch_p99_s=self.sketch.quantile(0.99),
            sketch_relative_accuracy=self.sketch.relative_accuracy,
            **extra,
        )


def run_load(
    config: Optional[LoadConfig] = None,
    service=None,
    clock: Optional[FakeClock] = None,
    flight_recorder: Optional[FlightRecorder] = None,
    slo_engine: Optional[SLOEngine] = None,
) -> LoadReport:
    """Replay one open-loop run; returns the scored report.

    Args:
        config: Traffic and control knobs (default :class:`LoadConfig`).
        service: A prepared fake-clock service to load (the chaos
            scenarios inject faulty ones); built fresh when omitted.
            Must already hold ``config.n_rows`` stored rows if given
            unwritten -- this function writes a seeded matrix either
            way.
        clock: The service's fake clock (required with ``service``).
        flight_recorder: Tail-samples full span trees of interesting
            requests (wired into the front end; needs telemetry on).
        slo_engine: Sampled on the fake clock as the run progresses so
            rolling SLO windows see the run's real time series.

    The driver advances the fake clock to whichever comes first --
    the next nominal arrival or the front-end's next flush deadline --
    so every interleaving of arrivals and window expiries is replayed
    exactly.  Late arrivals (the clock has already passed their nominal
    time because the service was busy) are submitted immediately with
    their deadline still dated from the nominal time.
    """
    config = config if config is not None else LoadConfig()
    if service is None:
        clock = FakeClock()
        service = _build_service(config, clock)
    elif clock is None:
        raise ValueError("a service injection requires its fake clock")
    traffic, reference = _prepare(config, service)

    quotas = TenantQuotas(
        default_rate_per_s=config.quota_rate_per_s,
        default_burst=config.quota_burst,
        clock=clock.now,
    )
    for tenant, (rate, burst) in (config.quota_overrides or {}).items():
        quotas.set_quota(tenant, rate, burst=burst)
    frontend = CoalescingFrontend(
        service,
        policy=CoalescePolicy(
            window_s=config.window_s, max_batch=config.max_batch
        ),
        admission=AdmissionController(
            max_queue_depth=config.max_queue_depth,
            quotas=quotas,
            overload_retry_after_s=config.window_s,
        ),
        clock=clock.now,
        auto_dispatch=False,
        flight_recorder=flight_recorder,
    )

    tally = _Tally(config)
    # (pool id, nominal arrival, tenant, future)
    inflight: List[Tuple[int, float, str, object]] = []

    # SLO snapshots on the *simulated* clock: enough ticks that every
    # rolling window spans several samples, few enough to stay cheap.
    slo_tick_s = config.duration_s / 64.0
    next_slo_tick = 0.0

    def slo_tick() -> None:
        nonlocal next_slo_tick
        if slo_engine is None:
            return
        while clock.now() >= next_slo_tick:
            slo_engine.sample(next_slo_tick)
            next_slo_tick += slo_tick_s

    def pump_until(limit: Optional[float]) -> None:
        """Run every flush due before ``limit`` (None: all of them)."""
        while True:
            due = frontend.next_flush_due()
            if due is None or (limit is not None and due > limit):
                return
            if due > clock.now():
                clock.advance(due - clock.now())
            frontend.pump()
            slo_tick()

    for t_nominal, tenant, qi in zip(
        traffic.arrivals, traffic.tenants, traffic.query_ids
    ):
        pump_until(t_nominal)
        if t_nominal > clock.now():
            clock.advance(t_nominal - clock.now())
        tally.tenants[tenant].offered += 1
        try:
            if config.kind == "search":
                future = frontend.submit(
                    traffic.pool[qi],
                    tenant=tenant,
                    deadline_at=t_nominal + config.deadline_s,
                )
            else:
                future = frontend.submit_top_k(
                    traffic.pool[qi],
                    config.k,
                    tenant=tenant,
                    deadline_at=t_nominal + config.deadline_s,
                )
        except AdmissionRejectedError as exc:
            tally.shed(tenant, exc.reason)
            continue
        tally.admit(tenant)
        inflight.append((qi, t_nominal, tenant, future))
    pump_until(None)
    frontend.drain()

    tail_ids: List[str] = []
    for qi, t_nominal, tenant, future in inflight:
        exc = future.exception()
        if exc is not None:
            if future.request_id is not None:
                tail_ids.append(future.request_id)
            tally.fail(tenant, exc)
            continue
        verdict = tally.answer(
            tenant,
            future.completed_at - t_nominal,
            future.result(timeout=0),
            reference[qi],
        )
        if _TM.enabled:
            _ANSWERS.inc(verdict=verdict)

    # Final SLO snapshot *after* scoring so the honesty verdicts
    # (counted above) land in the cumulative window.
    if slo_engine is not None:
        slo_engine.sample(clock.now())

    stats = frontend.stats()
    return tally.report(
        clock.now(),
        mean_batch_size=stats.mean_batch_size,
        batches=stats.batches,
        tail_request_ids=tuple(tail_ids),
    )


def format_load_report(report: LoadReport) -> str:
    """A terminal summary of one run (the ``repro loadtest`` output)."""
    lines = [
        "open-loop load test "
        f"(rate {report.config.rate_per_s:g}/s for "
        f"{report.config.duration_s:g}s simulated, "
        f"seed {report.config.seed})",
        f"  offered   {report.offered:6d}   "
        f"admitted {report.admitted:6d}   "
        f"shed {report.sheds:6d} ({report.shed_rate:6.1%})",
        f"  sheds     quota {report.shed_quota}, "
        f"queue_full {report.shed_queue_full}, "
        f"queue_deadline {report.shed_queue_deadline}",
        f"  outcomes  ok {report.ok}, degraded {report.degraded}, "
        f"deadline {report.deadline_misses}, "
        f"unavailable {report.unavailable}, error {report.errors}",
        f"  goodput   {report.goodput} responses "
        f"({report.goodput_qps:,.0f}/s simulated)",
        f"  latency   p50 {report.p50_s * 1e3:.3f} ms   "
        f"p95 {report.p95_s * 1e3:.3f} ms   "
        f"p99 {report.p99_s * 1e3:.3f} ms  (from nominal arrival)",
        f"  batching  {report.batches} batches, "
        f"mean size {report.mean_batch_size:.2f}",
        f"  honesty   wrong_unflagged={report.wrong_unflagged} "
        f"({'PASS' if report.honest else 'FAIL'})",
    ]
    if report.sketch_p99_s is not None:
        lines.insert(
            6,
            f"  sketch    p50 {report.sketch_p50_s * 1e3:.3f} ms   "
            f"p95 {report.sketch_p95_s * 1e3:.3f} ms   "
            f"p99 {report.sketch_p99_s * 1e3:.3f} ms  "
            f"(±{report.sketch_relative_accuracy:.0%} relative)",
        )
    for name, t in sorted(report.tenants.items()):
        lines.append(
            f"  tenant {name}:  offered {t.offered}, "
            f"admitted {t.admitted}, answered {t.answered}, "
            f"shed quota {t.shed_quota} / overload {t.shed_overload}"
        )
    return "\n".join(lines)
