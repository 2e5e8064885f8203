"""Extension experiment: closed-loop resilience and spare provisioning.

Not a paper figure -- the paper stops at showing that variation stays
inside the sensing margin -- but the question a production deployment
asks next: **how many spare rows does a target fault rate need, and does
the BIST -> repair -> refresh loop actually keep the search exact?**

Two studies:

1. **yield vs. spares** (Monte Carlo + analytic): arrays are seeded with
   random hard-fault maps at a given per-cell fault rate and dead-row
   rate, then put through the full BIST -> repair loop of
   :class:`~repro.resilience.resilient.ResilientTDAMArray`.  Measured
   full-repair yield and post-repair ``wrong_best_fraction`` are
   compared against the exact binomial model of
   :func:`~repro.resilience.repair.repair_yield`.
2. **refresh schedule**: the drift-limited refresh interval, its
   limiting mechanism, and the endurance-budgeted service lifetime of
   the design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultInjector
from repro.resilience.refresh import RefreshPlan, RefreshScheduler
from repro.resilience.repair import repair_yield, row_failure_probability
from repro.resilience.resilient import ResilientTDAMArray
from repro.experiments._instrument import instrumented


@dataclass
class ResilienceRecord:
    """One (spares, fault-rate) Monte Carlo cell.

    Attributes:
        n_spares: Provisioned spare rows.
        cell_fault_rate: Per-cell hard-fault probability.
        dead_row_rate: Per-row chain-failure probability.
        measured_yield: Fraction of trials fully repaired (no retired
            rows after the BIST -> repair loop).
        analytic_yield: The binomial model's prediction.
        wrong_best_repaired: Mean post-repair wrong-best fraction over
            the *fully repaired* trials (exactness check; 0 when the
            loop works).
        degraded_flagged: Fraction of not-fully-repaired trials whose
            searches all carried the degraded flag (silent-failure
            check; 1 when the loop is honest).
    """

    n_spares: int
    cell_fault_rate: float
    dead_row_rate: float
    measured_yield: float
    analytic_yield: float
    wrong_best_repaired: float
    degraded_flagged: float


@dataclass
class ResilienceResult:
    """The yield-vs-spares study output."""

    records: List[ResilienceRecord]
    refresh_plan: RefreshPlan
    config: TDAMConfig
    n_rows: int
    n_trials: int


def _wrong_best_fraction(
    array: ResilientTDAMArray, queries: np.ndarray
) -> float:
    """Fraction of queries whose live best row disagrees with the ideal.

    The reference best is the ideal-Hamming winner over *live* rows with
    the same distance -> row resolution the array applies (nominal
    delays are monotone in distance, so delay breaks no extra ties;
    ``argmin``'s first-minimum rule matches the ascending live order).
    """
    batch = array.search_batch(queries)
    live = np.setdiff1d(np.arange(array.n_rows), batch.retired_rows)
    ideal = (
        array._shadow[live][None, :, :] != queries[:, None, :]
    ).sum(axis=2)
    expect = live[ideal.argmin(axis=1)]
    return float((batch.best_rows != expect).sum()) / len(queries)


def _evaluate(
    config: TDAMConfig,
    n_rows: int,
    n_spares: int,
    faults: List[Fault],
    stored: np.ndarray,
    queries: np.ndarray,
) -> Tuple[bool, float, bool]:
    """One closed-loop trial: (fully repaired, wrong-best fraction,
    degraded flagged)."""
    array = ResilientTDAMArray(
        config,
        n_rows=n_rows,
        n_spares=n_spares,
        faults=faults,
        max_masked_stages=0,
    )
    array.write_all(stored)
    array.self_test_and_repair()
    if not array.degraded:
        return True, _wrong_best_fraction(array, queries), True
    result = array.search_batch(queries)
    return False, 0.0, bool(result.degraded)


@instrumented("resilience")
def run_resilience_study(
    spare_counts: Sequence[int] = (0, 1, 2, 4),
    cell_fault_rate: float = 0.002,
    dead_row_rate: float = 0.05,
    config: Optional[TDAMConfig] = None,
    n_rows: int = 16,
    n_trials: int = 12,
    n_queries: int = 8,
    seed: int = 11,
) -> ResilienceResult:
    """Monte Carlo the BIST -> repair loop across spare provisioning.

    Each trial seeds one fault map over ``n_rows + max(spare_counts)``
    physical rows (binomial cell faults and dead rows at the given
    rates); every spare count replays the *same* map truncated to its
    own physical extent (common random numbers).  Truncation makes the
    measured yield deterministically monotone in the spare count: the
    data-row damage is identical and extra spares can only add healthy
    replacements.  Each cell then runs the closed loop and scores repair
    yield, post-repair exactness, and degraded-mode honesty.
    """
    if not spare_counts:
        raise ValueError("spare_counts must not be empty")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    config = config or TDAMConfig(n_stages=32)
    rng = np.random.default_rng(seed)
    records: List[ResilienceRecord] = []
    p_row = row_failure_probability(
        cell_fault_rate,
        config.n_stages,
        p_dead=dead_row_rate,
        cell_fault_tolerance=0,
    )
    max_total = n_rows + max(spare_counts)
    trials = []
    for _trial in range(n_trials):
        injector = FaultInjector(
            config, max_total, seed=int(rng.integers(2**31))
        )
        n_cells = int(
            rng.binomial(max_total * config.n_stages, cell_fault_rate)
        )
        n_dead = int(rng.binomial(max_total, dead_row_rate))
        faults = injector.draw(
            n_stuck_mismatch=n_cells // 2,
            n_stuck_match=n_cells - n_cells // 2,
            n_dead_rows=n_dead,
        )
        stored = rng.integers(0, config.levels, (n_rows, config.n_stages))
        queries = rng.integers(
            0, config.levels, (n_queries, config.n_stages)
        )
        trials.append((faults, stored, queries))
    for n_spares in spare_counts:
        total = n_rows + n_spares
        outcomes = [
            _evaluate(
                config,
                n_rows,
                n_spares,
                [f for f in faults if f.row < total],
                stored,
                queries,
            )
            for faults, stored, queries in trials
        ]
        repaired = 0
        wrong_sum, wrong_trials = 0.0, 0
        flagged, not_repaired = 0, 0
        for ok, wrong_fraction, was_flagged in outcomes:
            if ok:
                repaired += 1
                wrong_sum += wrong_fraction
                wrong_trials += 1
            else:
                not_repaired += 1
                if was_flagged:
                    flagged += 1
        records.append(
            ResilienceRecord(
                n_spares=n_spares,
                cell_fault_rate=cell_fault_rate,
                dead_row_rate=dead_row_rate,
                measured_yield=repaired / n_trials,
                analytic_yield=repair_yield(n_rows, n_spares, p_row),
                wrong_best_repaired=(
                    wrong_sum / wrong_trials if wrong_trials else float("nan")
                ),
                degraded_flagged=(
                    flagged / not_repaired if not_repaired else 1.0
                ),
            )
        )
    plan = RefreshScheduler(config).plan()
    return ResilienceResult(
        records=records,
        refresh_plan=plan,
        config=config,
        n_rows=n_rows,
        n_trials=n_trials,
    )


def format_resilience(result: ResilienceResult) -> str:
    """Text rendering of the resilience study."""
    rows = [
        {
            "spares": r.n_spares,
            "yield_mc": r.measured_yield,
            "yield_model": r.analytic_yield,
            "wrong_best_after_repair": r.wrong_best_repaired,
            "degraded_flagged": r.degraded_flagged,
        }
        for r in result.records
    ]
    body = format_table(
        rows,
        title=(
            f"Extension: repair yield vs spares "
            f"({result.n_rows} rows, {result.config.n_stages} stages, "
            f"cell fault rate {result.records[0].cell_fault_rate:.3g}, "
            f"dead row rate {result.records[0].dead_row_rate:.3g}, "
            f"{result.n_trials} trials)"
        ),
    )
    return f"{body}\n{result.refresh_plan.summary()}"


if __name__ == "__main__":
    from repro.cli import emit

    emit(format_resilience(run_resilience_study()))
