"""Tests of the self-healing ResilientTDAMArray wrapper."""

import numpy as np
import pytest

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultType
from repro.devices.variation import VariationModel
from repro.resilience.resilient import ResilientTDAMArray
from tests.oracles import resilient_top_k


@pytest.fixture
def config():
    return TDAMConfig(n_stages=16)


@pytest.fixture
def stored(config):
    return np.random.default_rng(3).integers(0, 4, size=(6, config.n_stages))


class TestHealthyOperation:
    def test_self_queries_win(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        for row in range(6):
            result = array.search(stored[row])
            assert result.best_row == row
            assert result.hamming_distances[row] == 0
            assert not result.degraded
            assert result.confidence == 1.0

    def test_similarity_uses_effective_stages(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        result = array.search(stored[0])
        assert result.n_effective_stages == config.n_stages
        assert result.similarities[0] == config.n_stages
        assert result.similarity_fractions[0] == 1.0

    def test_validation(self, config):
        with pytest.raises(ValueError, match="n_rows"):
            ResilientTDAMArray(config, n_rows=0)
        with pytest.raises(ValueError, match="n_spares"):
            ResilientTDAMArray(config, n_rows=2, n_spares=-1)
        with pytest.raises(ValueError, match="bist_interval"):
            ResilientTDAMArray(config, n_rows=2, bist_interval=0)
        array = ResilientTDAMArray(config, n_rows=2)
        with pytest.raises(IndexError, match="row"):
            array.write(5, np.zeros(config.n_stages, dtype=np.int64))


class TestRepairLoop:
    def test_dead_row_remapped_to_spare(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=2)],
        )
        array.write_all(stored)
        # Before repair the dead row cannot win its own query.
        assert array.search(stored[2]).best_row != 2
        plan = array.self_test_and_repair()
        assert plan.row_remap  # the dead row moved
        result = array.search(stored[2])
        assert result.best_row == 2
        assert result.hamming_distances[2] == 0
        assert not result.degraded

    def test_cell_fault_masked_and_similarity_rescaled(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=1,
            faults=[Fault(FaultType.STUCK_MISMATCH, row=0, stage=5)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        result = array.search(stored[0])
        assert result.masked_stages == (5,)
        assert result.n_effective_stages == config.n_stages - 1
        assert result.best_row == 0
        assert result.hamming_distances[0] == 0
        assert result.similarities[0] == config.n_stages - 1

    def test_retirement_is_never_silent(self, config, stored):
        """Spares exhausted: the lost row is retired, every result is
        flagged, and the retired row can never win."""
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=1,
            faults=[
                Fault(FaultType.DEAD_ROW, row=1),
                Fault(FaultType.DEAD_ROW, row=4),
            ],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        assert array.degraded
        retired = set(array.health_report().retired_rows)
        assert len(retired) == 1
        for row in range(6):
            result = array.search(stored[row])
            assert result.degraded
            assert result.confidence < 1.0
            assert result.best_row not in retired
            if row not in retired:
                assert result.best_row == row

    def test_all_rows_dead(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=3,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=r) for r in range(3)],
        )
        array.write_all(stored[:3])
        array.self_test_and_repair()
        result = array.search(stored[0])
        assert result.best_row == -1
        assert result.degraded
        assert result.confidence == 0.0

    def test_auto_bist_triggers_and_repairs(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=3)],
            bist_interval=3,
        )
        array.write_all(stored)
        results = [array.search(stored[3]) for _ in range(5)]
        # The loop self-repaired within the interval.
        assert results[0].best_row != 3
        assert results[-1].best_row == 3
        assert array.health_report().last_bist is not None

    def test_write_to_retired_row_is_shadow_only_until_repair(
        self, config, stored
    ):
        array = ResilientTDAMArray(
            config,
            n_rows=3,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=0)],
        )
        array.write_all(stored[:3])
        array.self_test_and_repair()
        assert array.degraded
        fresh = (stored[0] + 1) % 4
        array.write(0, fresh)  # must not raise
        assert (array._shadow[0] == fresh).all()


def write_state(array):
    """Every field a write of the resilient array touches."""
    phys = array._physical
    return {
        "stored": phys._stored,
        "off_a": phys._off_a,
        "off_b": phys._off_b,
        "base_off_a": array._base_off_a,
        "base_off_b": array._base_off_b,
        "cycles": array._cycles,
        "row_age_s": array._row_age_s,
        "shadow": array._shadow,
    }


def assert_same_write_state(got, want):
    for field, value in write_state(want).items():
        assert np.array_equal(write_state(got)[field], value), field


class TestOneShotWrites:
    """Construction and write_all program in one write, identical on
    every field to a per-row write loop in the same order."""

    @staticmethod
    def repaired(config, stored, variation):
        # Physical rows 1 and 4 dead, one spare: one is remapped onto
        # the spare, the other retired.  Then drift, which a rewrite
        # must clear on exactly the rows it writes.
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=1,
            faults=[
                Fault(FaultType.DEAD_ROW, row=1),
                Fault(FaultType.DEAD_ROW, row=4),
            ],
            variation=VariationModel(seed=11) if variation else None,
        )
        array.write_all(stored)
        array.self_test_and_repair()
        assert np.array_equal(
            array._retired_mask, [False, False, False, False, True, False]
        )
        assert np.array_equal(array._map, [0, 6, 2, 3, 4, 5])
        array.advance_time(1e6)
        return array

    @pytest.mark.parametrize("variation", [False, True])
    def test_write_all_equals_the_row_loop(self, config, stored, variation):
        one_shot = self.repaired(config, stored, variation)
        looped = self.repaired(config, stored, variation)
        matrix = (stored + 1) % 4
        one_shot.write_all(matrix)
        for row in range(6):
            looped.write(row, matrix[row])
        assert_same_write_state(one_shot, looped)

    def test_wrong_length_write_changes_nothing(self, config, stored):
        array = self.repaired(config, stored, variation=True)
        untouched = self.repaired(config, stored, variation=True)
        (retired,) = np.flatnonzero(array._retired_mask)
        for vector in ([2], [2] * (config.n_stages + 1)):
            for row in (0, retired):
                with pytest.raises(ValueError, match="n_stages"):
                    array.write(row, vector)
        assert_same_write_state(array, untouched)
        # No variation was drawn either: the next write draws the same.
        array.write(0, stored[1])
        untouched.write(0, stored[1])
        assert_same_write_state(array, untouched)

    def test_construction_equals_the_row_loop(self, config):
        array = ResilientTDAMArray(
            config, n_rows=6, n_spares=2,
            variation=VariationModel(seed=11),
        )
        reference = FastTDAMArray(
            config, 8, variation=VariationModel(seed=11)
        )
        for phys in range(8):
            reference.write(phys, np.zeros(config.n_stages, dtype=np.int64))
        physical = array._physical
        assert np.array_equal(physical._stored, reference._stored)
        for field in ("_off_a", "_off_b"):
            assert np.array_equal(
                getattr(physical, field), getattr(reference, field)
            )
        assert np.array_equal(array._base_off_a, reference._off_a)
        assert np.array_equal(array._base_off_b, reference._off_b)
        assert not array._row_age_s.any()
        assert not array._cycles.any()


class TestDriftAndRefresh:
    def test_advance_time_ages_and_drifts(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        assert array.age_s == 0.0
        array.advance_time(1e4)
        assert array.age_s == pytest.approx(1e4)
        # Drift moved the device offsets off their write-time baseline.
        assert np.abs(array._physical._off_a).max() > 0

    def test_refresh_clears_drift_and_spends_endurance(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        cycles_before = array.health_report().cycles_used
        interval = array.scheduler.plan().interval_s
        array.advance_time(interval)
        assert array.refresh_due
        assert array.maybe_refresh()
        assert array.age_s == 0.0
        assert np.abs(array._physical._off_a).max() == 0.0
        assert array.health_report().cycles_used > cycles_before
        assert not array.refresh_due
        assert not array.maybe_refresh()

    def test_search_stays_exact_when_refreshed_on_schedule(
        self, config, stored
    ):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=0)
        array.write_all(stored)
        interval = array.scheduler.plan().interval_s
        for _ in range(3):
            array.advance_time(0.9 * interval)
            array.maybe_refresh()
            for row in range(6):
                assert array.search(stored[row]).best_row == row

    def test_negative_time_rejected(self, config):
        array = ResilientTDAMArray(config, n_rows=2)
        with pytest.raises(ValueError, match="dt_s"):
            array.advance_time(-1.0)


class TestHealthReport:
    def test_report_fields(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        report = array.health_report()
        assert report.n_rows == 6
        assert report.n_spares == 2
        assert report.spares_free == 2
        assert not report.degraded
        assert report.cycle_budget > 0
        assert report.last_bist is None
        array.self_test_and_repair()
        assert array.health_report().last_bist is not None
        assert "rows" in repr(array)

    def test_bist_restores_stored_data(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=1)
        array.write_all(stored)
        array.run_bist()
        for row in range(6):
            assert array.search(stored[row]).best_row == row


class TestTopKBatch:
    def test_pristine_served_by_pruned_cascade(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        queries = np.random.default_rng(7).integers(
            0, 4, size=(8, config.n_stages)
        )
        assert array._is_pristine()
        result = array.top_k_batch(queries, 3)
        assert not result.degraded
        assert result.retired_rows == ()
        expected = array.search_batch(queries).top_k(3)
        assert np.array_equal(result.rows, expected)

    def test_self_queries_win_their_row(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        result = array.top_k_batch(stored, 1)
        assert np.array_equal(result.rows[:, 0], np.arange(6))

    def test_repaired_array_falls_back_exactly(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=2)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        queries = np.random.default_rng(8).integers(
            0, 4, size=(5, config.n_stages)
        )
        assert not array._is_pristine()
        result = array.top_k_batch(queries, 2)
        assert np.array_equal(
            result.rows, array.search_batch(queries).top_k(2)
        )

    def test_retired_rows_flag_degraded(self, config, stored):
        array = ResilientTDAMArray(
            config,
            n_rows=6,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=1)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        queries = stored[:4]
        result = array.top_k_batch(queries, 3)
        assert result.degraded
        assert not array._is_pristine()
        assert 1 in result.retired_rows
        assert 1 not in set(result.rows.ravel())
        assert np.array_equal(
            result.rows, array.search_batch(queries).top_k(3)
        )

    def test_retired_row_ranks_after_a_dead_live_row(self, config, stored):
        # Row 0 is retired; row 3 then dies in service, unrepaired.  Both
        # read the maximum distance and the timeout, yet the live row 3
        # must rank before the retired row 0.
        array = ResilientTDAMArray(
            config,
            n_rows=4,
            n_spares=0,
            faults=[Fault(FaultType.DEAD_ROW, row=0)],
        )
        array.write_all(stored[:4])
        array.self_test_and_repair()
        assert 0 in array.health_report().retired_rows
        array._backing.faults.append(Fault(FaultType.DEAD_ROW, row=3))
        queries = stored[2:3]
        batch = array.search_batch(queries)
        n = config.n_stages
        assert batch.hamming_distances[0, 0] == batch.hamming_distances[0, 3] == n
        assert batch.delays_s[0, 0] == batch.delays_s[0, 3]
        assert batch.top_k(4).tolist() == [[2, 1, 3, 0]]
        assert array.top_k_batch(queries, 4).rows.tolist() == [[2, 1, 3, 0]]
        assert resilient_top_k(array, queries, 4).tolist() == [[2, 1, 3, 0]]

    def test_batch_result_top_k_matches_shared_rule(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        queries = np.random.default_rng(9).integers(
            0, 4, size=(4, config.n_stages)
        )
        batch = array.search_batch(queries)
        top = batch.top_k(2)
        for i in range(len(batch)):
            order = np.lexsort(
                (
                    np.arange(6),
                    batch.delays_s[i],
                    batch.hamming_distances[i],
                )
            )
            assert np.array_equal(top[i], order[:2])

    def test_k_validation(self, config, stored):
        array = ResilientTDAMArray(config, n_rows=6, n_spares=2)
        array.write_all(stored)
        with pytest.raises(ValueError, match=r"k must be in \[1, 6\]"):
            array.top_k_batch(stored[:1], 7)
