"""Chaos harness: break the serving layer on purpose, assert the SLOs.

Each scenario builds a fresh replicated service on a **fake clock**
(time advances only when the harness says so) with **seeded** fault and
jitter streams, injects one failure class -- device fault maps, attempt
timeouts, checkpoint corruption, a crash between a checkpoint's
temp-write and its publish -- then replays a deterministic request
stream and scores it against the service-level objectives:

- **honesty**: zero responses whose ``best_row`` disagrees with the
  ideal-Hamming oracle *without* the ``degraded`` flag set;
- **deadline**: in the timeout scenario, the deadline hit-rate stays at
  or above :data:`DEADLINE_SLO` (p99);
- **durability**: after checkpoint corruption or a mid-save crash, the
  service restores the newest *valid* snapshot and serves the
  snapshotted content correctly.

Scenario results are plain dataclasses; :func:`run_chaos_suite` is the
entry point the ``repro chaos`` CLI subcommand and
``experiments/ext_chaos.py`` wrap.  Runs are bit-deterministic given the
seed: everything random is a seeded ``numpy`` generator and everything
temporal is the fake clock.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.io as _io
from repro.core.config import TDAMConfig
from repro.resilience.resilient import ResilientTDAMArray
from repro.service.checkpoint import ServiceCheckpointer
from repro.service.errors import (
    AllShardsUnavailableError,
    CheckpointCorruptError,
    DeadlineExceededError,
    ServiceError,
    ShardTimeoutError,
)
from repro.service.retry import RetryBudget, RetryPolicy
from repro.service.server import TDAMSearchService
from repro.service.stack import build_shards
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.log import get_logger
from repro.telemetry.profile import ProbeRecorder, register_probe
from repro.telemetry.state import STATE as _TM, enabled_scope
from repro.telemetry.profile import emit_probe as _emit_probe

__all__ = [
    "FakeClock",
    "ChaosScenarioResult",
    "ChaosReport",
    "DEADLINE_SLO",
    "BURST_P99_FACTOR",
    "run_chaos_suite",
    "last_flight_recorder",
]

_log = get_logger(__name__)

#: The overload scenario's tail-sampling recorder from the most recent
#: :func:`run_chaos_suite` call (``None`` before the first run) -- the
#: ``repro chaos --flights-out`` artifact reads it after the suite.
last_flight_recorder: Optional[FlightRecorder] = None

#: The deadline SLO asserted in the timeout scenario (p99 hit-rate).
DEADLINE_SLO = 0.99


class FakeClock:
    """A monotonic clock that only moves when told to.

    Doubles as the service's ``sleep``: sleeping advances the clock, so
    backoffs consume *simulated* deadline budget and chaos runs are
    wall-clock-free and deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def sleep(self, dt_s: float) -> None:
        """Advance time by ``dt_s`` (the injected sleep)."""
        self.advance(dt_s)

    def advance(self, dt_s: float) -> None:
        """Advance time by ``dt_s`` seconds."""
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        self._now += dt_s


@dataclass(frozen=True)
class ChaosScenarioResult:
    """Scorecard of one scenario.

    Attributes:
        name: Scenario identifier.
        n_requests: Requests replayed.
        ok: Responses served cleanly (no degraded flag).
        degraded: Responses served with the degraded flag.
        deadline_misses: Requests that raised ``DeadlineExceededError``.
        unavailable: Requests that raised ``AllShardsUnavailableError``.
        wrong_unflagged: Responses whose answer disagreed with the
            oracle *without* the degraded flag -- the honesty SLO;
            must be zero.
        retries: Retries scheduled (from the ``service.retry`` probe).
        breaker_opens: Breaker open transitions (``service.breaker``).
        deadline_hit_rate: Fraction of requests answered in deadline.
        passed: Whether every SLO of the scenario held.
        notes: Human-readable detail (which check failed, or stats).
    """

    name: str
    n_requests: int
    ok: int
    degraded: int
    deadline_misses: int
    unavailable: int
    wrong_unflagged: int
    retries: int
    breaker_opens: int
    deadline_hit_rate: float
    passed: bool
    notes: str


@dataclass(frozen=True)
class ChaosReport:
    """The whole suite's outcome."""

    scenarios: List[ChaosScenarioResult]
    seed: int
    quick: bool

    @property
    def passed(self) -> bool:
        """Whether every scenario passed its SLOs."""
        return all(s.passed for s in self.scenarios)


# ----------------------------------------------------------------------
# Infrastructure
# ----------------------------------------------------------------------
def _ideal_best(stored: np.ndarray, query: np.ndarray) -> int:
    """The oracle winner: smallest ideal Hamming distance, lowest row.

    Matches the array's resolution rule exactly for variation-free
    replicas (nominal delays are monotone in distance, so the delay
    tie-break never reorders equal-distance rows above ``argmin``'s
    first-minimum rule).
    """
    return int((stored != query[None, :]).sum(axis=1).argmin())


class _Outcomes:
    """Tallies one scenario's request stream against the oracle.

    ``service`` is anything with ``search(query, deadline_s=...)``: an
    in-process service, or a remote client in the network scenarios.
    """

    def __init__(self, stored: np.ndarray) -> None:
        self.stored = stored
        self.ok = 0
        self.degraded = 0
        self.deadline_misses = 0
        self.unavailable = 0
        self.typed_errors = 0
        self.untyped = 0
        self.wrong_unflagged = 0
        self.n = 0

    def serve(
        self,
        service,
        query: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.n += 1
        try:
            response = service.search(query, deadline_s=deadline_s)
        except DeadlineExceededError:
            self.deadline_misses += 1
            return
        except AllShardsUnavailableError:
            self.unavailable += 1
            return
        except ServiceError:
            # Everything else the taxonomy names -- transport or
            # serving -- is an honest, typed "no answer".
            self.typed_errors += 1
            return
        except Exception:
            # A scorecard failure, not a crash: the scenario fails.
            _log.warning("untyped failure serving a request", exc_info=True)
            self.untyped += 1
            return
        if response.degraded:
            self.degraded += 1
        else:
            self.ok += 1
            if response.best_row != _ideal_best(self.stored, query):
                self.wrong_unflagged += 1

    @property
    def answered(self) -> int:
        """Requests that got an answer (exact or flagged degraded)."""
        return self.ok + self.degraded

    @property
    def hit_rate(self) -> float:
        return self.answered / self.n if self.n else 1.0


def _result(
    name: str,
    outcomes: _Outcomes,
    recorder: Optional[ProbeRecorder],
    passed: bool,
    notes: str,
) -> ChaosScenarioResult:
    """The scenario's scorecard from its request tally.  An untyped
    failure fails any scenario: every way a request can end must be
    typed."""
    if outcomes.untyped:
        passed = False
        notes += f"; {outcomes.untyped} untyped failures"
    return _scorecard(
        name, recorder, passed, notes,
        n_requests=outcomes.n,
        ok=outcomes.ok,
        degraded=outcomes.degraded,
        deadline_misses=outcomes.deadline_misses,
        unavailable=outcomes.unavailable,
        wrong_unflagged=outcomes.wrong_unflagged,
        deadline_hit_rate=outcomes.hit_rate,
    )


def _scorecard(
    name: str,
    recorder: Optional[ProbeRecorder],
    passed: bool,
    notes: str,
    **counts,
) -> ChaosScenarioResult:
    """One scorecard, announced on the ``chaos.scenario`` probe; retry
    and breaker counts come from ``recorder`` (zero without one)."""
    retries = opens = 0
    if recorder is not None:
        retries = len(recorder.payloads("service.retry"))
        opens = sum(
            1
            for p in recorder.payloads("service.breaker")
            if p.get("to_state") == "open"
        )
    result = ChaosScenarioResult(
        name=name,
        retries=retries,
        breaker_opens=opens,
        passed=passed,
        notes=notes,
        **counts,
    )
    if _TM.enabled:
        _emit_probe(
            "chaos.scenario",
            name=name,
            requests=result.n_requests,
            deadline_hit_rate=result.deadline_hit_rate,
            wrong_unflagged=result.wrong_unflagged,
            passed=passed,
        )
    return result


def _recording_service(
    shards: Sequence[ResilientTDAMArray],
    clock: FakeClock,
    **kwargs,
) -> Tuple[TDAMSearchService, ProbeRecorder]:
    """A service on the fake clock plus a probe recorder on its events."""
    recorder = ProbeRecorder()
    for event in ("service.retry", "service.breaker", "service.request",
                  "service.deadline_miss", "service.checkpoint"):
        register_probe(event, recorder)
    service = TDAMSearchService(
        shards, clock=clock.now, sleep=clock.sleep, **kwargs
    )
    return service, recorder


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _scenario_baseline(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """No injection: every answer exact, every deadline met."""
    rng = np.random.default_rng(seed)
    clock = FakeClock()
    shards = build_shards(config, n_rows, n_shards=2, n_spares=2)
    service, recorder = _recording_service(shards, clock)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = (
        outcomes.wrong_unflagged == 0
        and outcomes.degraded == 0
        and outcomes.hit_rate == 1.0
    )
    return _result(
        "baseline", outcomes, recorder, passed,
        "clean replicas must serve exactly and in deadline",
    )


def _scenario_device_faults(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Hard fault maps: answers are exact or explicitly degraded.

    Shard 0 is wrecked (dead rows beyond its spare pool -- the repair
    loop must retire rows and the health check must trip its breaker);
    shard 1 carries a repairable sprinkling of cell faults.  The router
    must converge on shard 1 and the honesty SLO must hold throughout.
    """
    rng = np.random.default_rng(seed)
    clock = FakeClock()
    shards = build_shards(
        config,
        n_rows,
        n_shards=2,
        n_spares=2,
        fault_counts=[(2, 2, 4), (1, 1, 0)],
        seed=seed,
    )
    service, recorder = _recording_service(shards, clock)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    for shard in service.shards:
        shard.array.self_test_and_repair()
    states = service.run_health_checks()
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = outcomes.wrong_unflagged == 0 and outcomes.hit_rate == 1.0
    return _result(
        "device_faults", outcomes, recorder, passed,
        f"post-repair breaker states: "
        f"{ {k: v.value for k, v in states.items()} }",
    )


def _scenario_timeouts(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Injected attempt timeouts: retries keep the deadline SLO.

    Every attempt costs simulated service time; a seeded fraction of
    attempts on each shard instead burns the per-attempt timeout and
    raises :class:`ShardTimeoutError`.  With two replicas, retry +
    failover must keep the deadline hit-rate at or above
    :data:`DEADLINE_SLO`.
    """
    rng = np.random.default_rng(seed)
    fault_rng = np.random.default_rng(seed + 1)
    clock = FakeClock()
    shards = build_shards(config, n_rows, n_shards=2, n_spares=2)
    service, recorder = _recording_service(
        shards,
        clock,
        retry_policy=RetryPolicy(
            max_attempts=4,
            backoff_base_s=0.0005,
            backoff_cap_s=0.004,
            jitter_seed=seed,
        ),
        retry_budget=RetryBudget(deposit_per_request=0.5, max_balance=50.0),
        default_deadline_s=0.050,
        failure_threshold=5,
        reset_timeout_s=0.020,
    )
    attempt_cost_s = 0.001
    attempt_timeout_s = 0.008
    timeout_rate = 0.15

    def flaky(shard_id: str, queries: np.ndarray) -> None:
        if fault_rng.uniform() < timeout_rate:
            clock.advance(attempt_timeout_s)
            raise ShardTimeoutError(
                f"{shard_id}: attempt timed out after "
                f"{attempt_timeout_s * 1e3:.0f} ms"
            )
        clock.advance(attempt_cost_s)

    service.add_interceptor(flaky)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = (
        outcomes.wrong_unflagged == 0
        and outcomes.hit_rate >= DEADLINE_SLO
    )
    return _result(
        "timeouts", outcomes, recorder, passed,
        f"hit rate {outcomes.hit_rate:.4f} vs SLO {DEADLINE_SLO:.2f} "
        f"({outcomes.deadline_misses} misses, "
        f"{len(recorder.payloads('service.retry'))} retries)",
    )


def _scenario_checkpoint_corruption(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Corrupted snapshot: restore falls back to the previous one."""
    rng = np.random.default_rng(seed)
    clock = FakeClock()
    shards = build_shards(config, n_rows, n_shards=1, n_spares=2)
    service, recorder = _recording_service(shards, clock)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    notes: List[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        ckpt = ServiceCheckpointer(Path(tmpdir) / "shard0.npz")
        ckpt.save(shards[0], trigger="chaos-initial")
        ckpt.save(shards[0], trigger="chaos-second")  # rotates .prev
        # Corrupt the primary artifact in place (bit rot / torn write).
        blob = bytearray(ckpt.path.read_bytes())
        for i in range(64, min(1600, len(blob)), 13):
            blob[i] ^= 0xFF
        ckpt.path.write_bytes(bytes(blob))
        rejected = False
        try:
            ckpt.restore(shards[0])
        except CheckpointCorruptError:
            rejected = True
        notes.append(f"corrupt primary rejected: {rejected}")
        # The fallback must land on the intact .prev snapshot.
        restored_ok = True
        try:
            info, _ = ckpt.restore_latest(shards[0])
            notes.append(f"fell back to {info.path.name}")
        except Exception as exc:  # pragma: no cover - scenario failure
            restored_ok = False
            notes.append(f"fallback failed: {exc!r}")
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = (
        rejected
        and restored_ok
        and outcomes.wrong_unflagged == 0
        and outcomes.hit_rate == 1.0
    )
    return _result(
        "checkpoint_corruption", outcomes, recorder, passed,
        "; ".join(notes),
    )


class _SimulatedCrash(BaseException):
    """Raised by the crash hook; BaseException so nothing swallows it."""


def _scenario_crash_mid_save(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Process dies between a checkpoint's temp-write and its publish.

    The ``repro.io`` publish seam is replaced by a raiser, a snapshot is
    attempted, and the scenario asserts the pre-crash artifact survives
    bit-for-bit and still restores the shard to its snapshotted state.
    """
    rng = np.random.default_rng(seed)
    clock = FakeClock()
    shards = build_shards(config, n_rows, n_shards=1, n_spares=2)
    service, recorder = _recording_service(shards, clock)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    notes: List[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        ckpt = ServiceCheckpointer(
            Path(tmpdir) / "shard0.npz", keep_previous=False
        )
        ckpt.save(shards[0], trigger="pre-crash")
        good_bytes = ckpt.path.read_bytes()
        # Overwrite the stored content, then crash mid-snapshot.
        stored2 = rng.integers(0, config.levels, (n_rows, config.n_stages))
        service.write_all(stored2)

        def crash(tmp: str, dst: str) -> None:
            raise _SimulatedCrash(
                "process killed between temp write and os.replace"
            )

        original = _io._REPLACE
        _io._REPLACE = crash
        crashed = False
        try:
            ckpt.save(shards[0], trigger="crashing")
        except _SimulatedCrash:
            crashed = True
        finally:
            _io._REPLACE = original
        notes.append(f"crash injected: {crashed}")
        intact = ckpt.path.read_bytes() == good_bytes
        notes.append(f"pre-crash artifact intact: {intact}")
        leftovers = [
            name
            for name in os.listdir(tmpdir)
            if name.endswith(".tmp")
        ]
        notes.append(f"temp leftovers: {len(leftovers)}")
        ckpt.restore_latest(shards[0])
        restored_matches = bool(
            (shards[0]._shadow == stored).all()
        )
        notes.append(f"restored pre-crash content: {restored_matches}")
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = (
        crashed
        and intact
        and restored_matches
        and outcomes.wrong_unflagged == 0
        and outcomes.hit_rate == 1.0
    )
    return _result(
        "crash_mid_save", outcomes, recorder, passed, "; ".join(notes)
    )


def _scenario_combined(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Device faults *and* injected timeouts at once: honesty holds."""
    rng = np.random.default_rng(seed)
    fault_rng = np.random.default_rng(seed + 2)
    clock = FakeClock()
    shards = build_shards(
        config,
        n_rows,
        n_shards=3,
        n_spares=2,
        fault_counts=[(2, 2, 4), (1, 1, 0), (0, 0, 0)],
        seed=seed,
    )
    service, recorder = _recording_service(
        shards,
        clock,
        retry_policy=RetryPolicy(
            max_attempts=4,
            backoff_base_s=0.0005,
            backoff_cap_s=0.004,
            jitter_seed=seed,
        ),
        retry_budget=RetryBudget(deposit_per_request=0.5, max_balance=50.0),
        default_deadline_s=0.050,
        failure_threshold=5,
        reset_timeout_s=0.020,
    )

    def flaky(shard_id: str, queries: np.ndarray) -> None:
        if fault_rng.uniform() < 0.10:
            clock.advance(0.008)
            raise ShardTimeoutError(f"{shard_id}: injected timeout")
        clock.advance(0.001)

    service.add_interceptor(flaky)
    stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
    service.write_all(stored)
    for shard in service.shards:
        shard.array.self_test_and_repair()
    service.run_health_checks()
    outcomes = _Outcomes(stored)
    for _ in range(n_requests):
        clock.advance(1e-4)
        outcomes.serve(
            service, rng.integers(0, config.levels, config.n_stages)
        )
    passed = (
        outcomes.wrong_unflagged == 0
        and outcomes.hit_rate >= DEADLINE_SLO
    )
    return _result(
        "combined", outcomes, recorder, passed,
        f"hit rate {outcomes.hit_rate:.4f}, "
        f"{outcomes.degraded} degraded responses",
    )


# ----------------------------------------------------------------------
# Overload scenarios (driven through the coalescing front-end)
# ----------------------------------------------------------------------
#: Burst latency SLO: p99 of *admitted* requests under a saturating
#: burst must stay within this factor of the uncontended p99 -- the
#: whole point of bounded admission (shed the excess, protect the rest).
BURST_P99_FACTOR = 2.0


def _load_result(
    name: str,
    report,
    recorder: ProbeRecorder,
    passed: bool,
    notes: str,
) -> ChaosScenarioResult:
    """A scenario scorecard built from a load-generator report."""
    return _scorecard(
        name, recorder, passed, notes,
        n_requests=report.offered,
        ok=report.ok,
        degraded=report.degraded,
        deadline_misses=report.deadline_misses,
        unavailable=report.unavailable,
        wrong_unflagged=report.wrong_unflagged,
        deadline_hit_rate=(
            report.goodput / report.admitted if report.admitted else 1.0
        ),
    )


def _load_recorder() -> ProbeRecorder:
    recorder = ProbeRecorder()
    for event in ("service.retry", "service.breaker", "service.admission",
                  "coalesce.flush", "frontend.request"):
        register_probe(event, recorder)
    return recorder


def _scenario_overload_burst(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """A saturating burst: shed the excess, protect the admitted.

    Two open-loop runs on the same seeded geometry: an uncontended one
    establishing the baseline p99, then a burst far beyond capacity
    against a bounded queue.  The SLOs: honest answers throughout, a
    nonzero shed rate with every rejection typed, and the admitted
    requests' p99 within :data:`BURST_P99_FACTOR` of uncontended --
    overload must cost the excess, not everyone.
    """
    # Deferred import: loadgen builds on this module's FakeClock.
    from repro.service.loadgen import LoadConfig, run_load

    global last_flight_recorder
    duration_s = max(0.05, n_requests * 6e-4)
    common = dict(
        duration_s=duration_s,
        deadline_s=0.050,
        n_rows=n_rows,
        n_stages=config.n_stages,
        max_queue_depth=48,
        seed=seed,
    )
    recorder = _load_recorder()
    # Tail-based sampling under overload: every non-goodput request
    # (deadline miss, shed, ...) must survive in the ring buffer, so
    # size it above the whole offered load.
    flights = FlightRecorder(capacity=8192)
    last_flight_recorder = flights
    calm = run_load(LoadConfig(rate_per_s=1500.0, **common))
    burst = run_load(
        LoadConfig(rate_per_s=30000.0, **common), flight_recorder=flights
    )
    sheds_typed = burst.sheds == burst.offered - burst.admitted
    p99_ok = burst.p99_s <= BURST_P99_FACTOR * calm.p99_s
    retained = set(flights.request_ids())
    tail_retained = all(
        rid in retained for rid in burst.tail_request_ids
    )
    passed = (
        calm.honest
        and burst.honest
        and calm.sheds == 0
        and burst.sheds > 0
        and sheds_typed
        and burst.goodput > 0
        and p99_ok
        and tail_retained
    )
    return _load_result(
        "overload_burst", burst, recorder, passed,
        f"calm p99 {calm.p99_s * 1e3:.2f} ms, burst p99 "
        f"{burst.p99_s * 1e3:.2f} ms (SLO <= {BURST_P99_FACTOR:g}x), "
        f"shed {burst.sheds}/{burst.offered} "
        f"({burst.shed_rate:.1%}, all typed: {sheds_typed}); "
        f"tail flights retained {len(retained)} "
        f"(all {len(burst.tail_request_ids)} misses: {tail_retained})",
    )


def _scenario_slow_shard_under_load(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """One replica times out under load: breaker shifts the traffic.

    A two-replica service where shard0 burns its attempt timeout and
    fails every attempt.  Under sustained load the breaker must open on
    shard0, failover must keep goodput flowing from shard1, and every
    served answer must stay honest.
    """
    from repro.service.loadgen import LoadConfig, run_load

    clock = FakeClock()
    shards = build_shards(config, n_rows, n_shards=2, n_spares=2)
    recorder = _load_recorder()
    service = TDAMSearchService(
        shards,
        clock=clock.now,
        sleep=clock.sleep,
        retry_policy=RetryPolicy(
            max_attempts=3,
            backoff_base_s=0.0002,
            backoff_cap_s=0.002,
            jitter_seed=seed,
        ),
        retry_budget=RetryBudget(deposit_per_request=0.5, max_balance=50.0),
        default_deadline_s=0.050,
        failure_threshold=3,
        reset_timeout_s=0.100,
    )
    load = LoadConfig(
        duration_s=max(0.05, n_requests * 6e-4),
        rate_per_s=1500.0,
        deadline_s=0.050,
        n_rows=n_rows,
        n_stages=config.n_stages,
        seed=seed,
    )

    def slow(shard_id: str, queries: np.ndarray) -> None:
        clock.advance(0.006)
        raise ShardTimeoutError(f"{shard_id}: drowning under load")

    def cost(shard_id: str, queries: np.ndarray) -> None:
        clock.advance(
            load.attempt_base_s + load.attempt_per_query_s * queries.shape[0]
        )

    service.add_interceptor(slow, shard_id="shard0")
    service.add_interceptor(cost, shard_id="shard1")
    report = run_load(load, service=service, clock=clock)
    opens = sum(
        1
        for p in recorder.payloads("service.breaker")
        if p.get("to_state") == "open" and p.get("shard") == "shard0"
    )
    answered_rate = (
        report.goodput / report.admitted if report.admitted else 0.0
    )
    passed = (
        report.honest
        and opens > 0
        and report.goodput > 0
        and answered_rate >= DEADLINE_SLO
    )
    return _load_result(
        "slow_shard_under_load", report, recorder, passed,
        f"shard0 breaker opened {opens}x, answered "
        f"{answered_rate:.4f} of admitted vs SLO {DEADLINE_SLO:.2f}",
    )


def _scenario_tenant_stampede(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """One tenant stampedes: its quota burns, the others stay whole.

    Tenant ``t0`` sends ~85% of a heavy offered load against a small
    token-bucket quota; ``t1``..``t3`` stay modest and unlimited.  The
    SLOs: t0's excess is shed on *quota* (typed, with retry hints,
    before it can become queue pressure), every well-behaved tenant is
    fully answered, and honesty holds throughout.
    """
    from repro.service.loadgen import LoadConfig, run_load

    recorder = _load_recorder()
    report = run_load(
        LoadConfig(
            duration_s=max(0.05, n_requests * 6e-4),
            rate_per_s=4000.0,
            deadline_s=0.050,
            n_tenants=4,
            tenant_weights=(0.85, 0.05, 0.05, 0.05),
            quota_overrides={"t0": (400.0, 16.0)},
            n_rows=n_rows,
            n_stages=config.n_stages,
            seed=seed,
        )
    )
    t0 = report.tenants["t0"]
    others = [report.tenants[f"t{i}"] for i in (1, 2, 3)]
    others_whole = all(
        t.answered == t.offered for t in others if t.offered
    )
    passed = (
        report.honest
        and t0.shed_quota > 0
        and report.shed_queue_full == 0
        and others_whole
        and t0.answered > 0
    )
    return _load_result(
        "tenant_stampede", report, recorder, passed,
        f"t0 offered {t0.offered}, quota-shed {t0.shed_quota}, "
        f"answered {t0.answered}; bystanders whole: {others_whole}",
    )


# ----------------------------------------------------------------------
# Network scenarios (real sockets; implemented in repro.net.chaos and
# imported lazily so the service layer never depends on the transport)
# ----------------------------------------------------------------------
def _scenario_net_flaky_link(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Seeded wire faults between client and server: exact or typed."""
    from repro.net.chaos import scenario_net_flaky_link

    return scenario_net_flaky_link(config, n_rows, n_requests, seed)


def _scenario_net_slow_loris(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """A stalling peer is evicted; healthy clients are unharmed."""
    from repro.net.chaos import scenario_net_slow_loris

    return scenario_net_slow_loris(config, n_rows, n_requests, seed)


def _scenario_net_server_kill(
    config: TDAMConfig, n_rows: int, n_requests: int, seed: int
) -> ChaosScenarioResult:
    """Server sockets severed mid-stream: typed errors, then recovery."""
    from repro.net.chaos import scenario_net_server_kill

    return scenario_net_server_kill(config, n_rows, n_requests, seed)


_SCENARIOS: Dict[str, Callable[[TDAMConfig, int, int, int],
                               ChaosScenarioResult]] = {
    "baseline": _scenario_baseline,
    "device_faults": _scenario_device_faults,
    "timeouts": _scenario_timeouts,
    "checkpoint_corruption": _scenario_checkpoint_corruption,
    "crash_mid_save": _scenario_crash_mid_save,
    "combined": _scenario_combined,
    "overload_burst": _scenario_overload_burst,
    "slow_shard_under_load": _scenario_slow_shard_under_load,
    "tenant_stampede": _scenario_tenant_stampede,
    "net_flaky_link": _scenario_net_flaky_link,
    "net_slow_loris": _scenario_net_slow_loris,
    "net_server_kill": _scenario_net_server_kill,
}


def run_chaos_suite(
    quick: bool = False,
    seed: int = 7,
    scenarios: Optional[Sequence[str]] = None,
    config: Optional[TDAMConfig] = None,
) -> ChaosReport:
    """Run the chaos scenarios and score them against the SLOs.

    Args:
        quick: Reduced sizes for CI smoke runs (same scenarios).
        seed: Master seed of every fault / data / jitter stream.
        scenarios: Subset of scenario names (default: all, in order).
        config: Design point override (default: 16-stage quick /
            32-stage full).

    Returns:
        A :class:`ChaosReport`; ``report.passed`` is the gate.

    The suite runs inside ``telemetry.enabled_scope()`` -- the service's
    counters and probes are live and each scenario's tallies come from
    the same probe stream an operator would subscribe to.  Existing
    hooks/metrics are left untouched apart from the counters the run
    increments.
    """
    names = list(scenarios) if scenarios is not None else list(_SCENARIOS)
    unknown = [n for n in names if n not in _SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenarios {unknown}; "
            f"known: {sorted(_SCENARIOS)}"
        )
    if config is None:
        config = TDAMConfig(n_stages=16 if quick else 32)
    n_rows = 8 if quick else 16
    n_requests = 40 if quick else 250
    results: List[ChaosScenarioResult] = []
    with enabled_scope():
        for name in names:
            before = _snapshot_hooks()
            try:
                results.append(
                    _SCENARIOS[name](config, n_rows, n_requests, seed)
                )
            finally:
                _restore_hooks(before)
    return ChaosReport(scenarios=results, seed=seed, quick=quick)


def _snapshot_hooks():
    from repro.telemetry import profile

    with profile._lock:
        return dict(profile._hooks)


def _restore_hooks(snapshot) -> None:
    from repro.telemetry import profile

    with profile._lock:
        profile._hooks.clear()
        profile._hooks.update(snapshot)
