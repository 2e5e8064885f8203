"""End-to-end acceptance demo of the closed resilience loop.

One seeded scenario drives the whole subsystem the way a deployment
would: a fault-ridden array with retention drift is put through
BIST -> repair -> refresh, and the contract is checked at each step --
with spares available the wrong-best fraction drops to exactly zero;
once spares are exhausted every result carries ``degraded=True`` and a
retired row never silently wins.
"""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultInjector, FaultType
from repro.resilience.resilient import ResilientTDAMArray

N_ROWS = 10
N_STAGES = 24


@pytest.fixture
def config():
    return TDAMConfig(n_stages=N_STAGES)


@pytest.fixture
def data(config):
    rng = np.random.default_rng(17)
    stored = rng.integers(0, config.levels, size=(N_ROWS, N_STAGES))
    # Self-queries plus random ones: a dead data row is guaranteed to
    # corrupt at least its own exact-match lookup.
    queries = np.vstack(
        [stored, rng.integers(0, config.levels, size=(8, N_STAGES))]
    )
    return stored, queries


def seeded_faults(config, total_rows):
    """Seeded cell faults plus two dead rows pinned onto data rows."""
    injector = FaultInjector(config, total_rows, seed=99)
    faults = injector.draw(n_stuck_mismatch=2, n_stuck_match=1)
    faults += [
        Fault(FaultType.DEAD_ROW, row=1),
        Fault(FaultType.DEAD_ROW, row=6),
    ]
    return faults


def wrong_best_fraction(array, stored, queries):
    """Wrong-best fraction over live rows, against the ideal Hamming
    winner resolved with the array's own distance -> row rule.

    The reference counts only *surviving* stages: a masked column is
    excluded from the distance array-wide (that is the rescaled
    similarity contract the repair documents).
    """
    retired = array.health_report().retired_rows
    live = [r for r in range(array.n_rows) if r not in retired]
    masked = set(array._masked)
    cols = [s for s in range(array.config.n_stages) if s not in masked]
    wrong = 0
    for query in queries:
        ideal = (stored[live][:, cols] != query[cols][None, :]).sum(axis=1)
        expect = live[int(np.lexsort((live, ideal))[0])]
        if array.search(query).best_row != expect:
            wrong += 1
    return wrong / len(queries)


class TestClosedLoopWithSpares:
    def test_bist_repair_refresh_restores_exactness(self, config, data):
        stored, queries = data
        n_spares = 4
        array = ResilientTDAMArray(
            config,
            n_rows=N_ROWS,
            n_spares=n_spares,
            faults=seeded_faults(config, N_ROWS + n_spares),
            max_masked_stages=2,
        )
        array.write_all(stored)

        # The unrepaired array answers wrongly for some queries.
        damaged = wrong_best_fraction(array, stored, queries)
        assert damaged > 0.0

        # Close the loop: BIST diagnoses, repairs apply.
        plan = array.self_test_and_repair()
        assert not plan.is_noop
        assert not array.degraded

        # With spares available the wrong-best fraction drops to zero.
        assert wrong_best_fraction(array, stored, queries) == 0.0
        for result in (array.search(q) for q in queries):
            assert not result.degraded

        # Age the array to the refresh deadline and let the scheduler
        # act: exactness survives the drift.
        interval = array.scheduler.plan().interval_s
        array.advance_time(interval)
        assert array.refresh_due
        assert array.maybe_refresh()
        assert array.age_s == 0.0
        assert wrong_best_fraction(array, stored, queries) == 0.0

        # The loop spent real resources and says so.
        health = array.health_report()
        assert health.spares_free < n_spares
        assert health.cycles_used > 0
        assert health.last_bist is not None


class TestSparesExhausted:
    def test_degraded_mode_is_explicit_never_silent(self, config, data):
        stored, queries = data
        # Same damage, but no spares to absorb the dead rows.
        array = ResilientTDAMArray(
            config,
            n_rows=N_ROWS,
            n_spares=0,
            faults=seeded_faults(config, N_ROWS),
            max_masked_stages=2,
        )
        array.write_all(stored)
        array.self_test_and_repair()

        assert array.degraded
        retired = set(array.health_report().retired_rows)
        assert retired

        for query in queries:
            result = array.search(query)
            # Every answer is flagged -- never a silent wrong best.
            assert result.degraded
            assert result.confidence < 1.0
            assert result.retired_rows == tuple(sorted(retired))
            # A retired row can never win, and its reported distance is
            # pinned to the maximum so downstream consumers cannot
            # mistake it for a match.
            assert result.best_row not in retired
            for row in retired:
                assert (
                    result.hamming_distances[row]
                    == result.n_effective_stages
                )

        # Over the surviving rows the repaired answer is still exact.
        assert wrong_best_fraction(array, stored, queries) == 0.0
