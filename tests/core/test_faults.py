"""Tests of hard-fault injection."""

import numpy as np
import pytest

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.faults import (
    Fault,
    FaultInjector,
    FaultType,
    FaultyTDAMArray,
    search_error_statistics,
)
from tests.oracles import faulted_mismatch_matrix


@pytest.fixture
def clean_array():
    config = TDAMConfig(n_stages=16)
    array = FastTDAMArray(config, n_rows=4)
    stored = np.random.default_rng(0).integers(0, 4, size=(4, 16))
    array.write_all(stored)
    return array, stored


class TestFaultEffects:
    def test_no_faults_is_transparent(self, clean_array):
        array, stored = clean_array
        faulty = FaultyTDAMArray(array, [])
        clean = array.search(stored[1])
        wrapped = faulty.search(stored[1])
        assert np.array_equal(
            clean.hamming_distances, wrapped.hamming_distances
        )

    def test_stuck_mismatch_inflates_distance(self, clean_array):
        array, stored = clean_array
        faulty = FaultyTDAMArray(
            array, [Fault(FaultType.STUCK_MISMATCH, row=1, stage=3)]
        )
        result = faulty.search(stored[1])
        # The self-query of row 1 now reports distance 1, not 0.
        assert result.hamming_distances[1] == 1

    def test_stuck_match_hides_mismatch(self, clean_array):
        array, stored = clean_array
        query = stored[1].copy()
        query[3] = (query[3] + 1) % 4  # mismatch exactly at stage 3
        faulty = FaultyTDAMArray(
            array, [Fault(FaultType.STUCK_MATCH, row=1, stage=3)]
        )
        result = faulty.search(query)
        assert result.hamming_distances[1] == 0  # the mismatch vanished

    def test_dead_row_reports_max_distance(self, clean_array):
        array, stored = clean_array
        faulty = FaultyTDAMArray(array, [Fault(FaultType.DEAD_ROW, row=2)])
        result = faulty.search(stored[2])
        assert result.hamming_distances[2] == array.config.n_stages
        assert result.best_row != 2

    def test_fault_on_other_row_is_isolated(self, clean_array):
        array, stored = clean_array
        faulty = FaultyTDAMArray(
            array, [Fault(FaultType.STUCK_MISMATCH, row=0, stage=0)]
        )
        result = faulty.search(stored[3])
        assert result.hamming_distances[3] == 0

    def test_fault_validation(self, clean_array):
        array, _ = clean_array
        with pytest.raises(ValueError, match="row"):
            FaultyTDAMArray(array, [Fault(FaultType.DEAD_ROW, row=9)])
        with pytest.raises(ValueError, match="stage"):
            FaultyTDAMArray(
                array, [Fault(FaultType.STUCK_MATCH, row=0, stage=99)]
            )


class TestFaultInjector:
    def test_draw_counts(self):
        injector = FaultInjector(TDAMConfig(n_stages=16), n_rows=4, seed=1)
        faults = injector.draw(n_stuck_mismatch=3, n_stuck_match=2,
                               n_dead_rows=1)
        kinds = [f.kind for f in faults]
        assert kinds.count(FaultType.STUCK_MISMATCH) == 3
        assert kinds.count(FaultType.STUCK_MATCH) == 2
        assert kinds.count(FaultType.DEAD_ROW) == 1

    def test_cell_faults_do_not_overlap(self):
        injector = FaultInjector(TDAMConfig(n_stages=8), n_rows=2, seed=1)
        faults = injector.draw(n_stuck_mismatch=8, n_stuck_match=8)
        positions = {(f.row, f.stage) for f in faults}
        assert len(positions) == 16

    def test_draw_validation(self):
        injector = FaultInjector(TDAMConfig(n_stages=4), n_rows=2, seed=1)
        with pytest.raises(ValueError, match="cell faults"):
            injector.draw(n_stuck_mismatch=99)
        with pytest.raises(ValueError, match="dead rows"):
            injector.draw(n_dead_rows=3)

    def test_seeded_reproducibility(self):
        a = FaultInjector(TDAMConfig(), n_rows=8, seed=7).draw(2, 2, 1)
        b = FaultInjector(TDAMConfig(), n_rows=8, seed=7).draw(2, 2, 1)
        assert a == b


class TestFaultComposition:
    def test_duplicate_faults_on_same_cell(self, clean_array):
        """The same stuck fault applied twice behaves like one."""
        array, stored = clean_array
        fault = Fault(FaultType.STUCK_MISMATCH, row=1, stage=3)
        once = FaultyTDAMArray(array, [fault]).search(stored[1])
        twice = FaultyTDAMArray(array, [fault, fault]).search(stored[1])
        assert np.array_equal(once.hamming_distances, twice.hamming_distances)
        assert once.hamming_distances[1] == 1

    def test_conflicting_faults_last_wins(self, clean_array):
        """Opposite stuck kinds on one cell: the later override applies."""
        array, stored = clean_array
        mismatch = Fault(FaultType.STUCK_MISMATCH, row=1, stage=3)
        match = Fault(FaultType.STUCK_MATCH, row=1, stage=3)
        first = FaultyTDAMArray(array, [mismatch, match]).search(stored[1])
        second = FaultyTDAMArray(array, [match, mismatch]).search(stored[1])
        assert first.hamming_distances[1] == 0
        assert second.hamming_distances[1] == 1

    def test_dead_row_dominates_cell_faults(self, clean_array):
        """Cell faults on a dead row are unobservable: dead wins."""
        array, stored = clean_array
        faults = [
            Fault(FaultType.STUCK_MATCH, row=2, stage=0),
            Fault(FaultType.STUCK_MATCH, row=2, stage=1),
            Fault(FaultType.DEAD_ROW, row=2),
            Fault(FaultType.STUCK_MATCH, row=2, stage=2),
        ]
        result = FaultyTDAMArray(array, faults).search(stored[2])
        n = array.config.n_stages
        assert result.hamming_distances[2] == n
        assert result.delays_s[2] == pytest.approx(
            array.timing.chain_delay(n)
        )

    def test_all_rows_dead(self, clean_array):
        """A fully dead array still resolves (by row order) and every
        row reads the controller timeout."""
        array, stored = clean_array
        faults = [
            Fault(FaultType.DEAD_ROW, row=r) for r in range(array.n_rows)
        ]
        result = FaultyTDAMArray(array, faults).search(stored[0])
        n = array.config.n_stages
        assert (result.hamming_distances == n).all()
        assert result.best_row == 0  # pure row-order tie resolution
        assert np.allclose(result.delays_s, array.timing.chain_delay(n))

    def test_delay_law_exact_under_any_fault_map(self):
        """Seeded randomized check of the paper's delay law under faults:
        ``d_tot = 2 N d_INV + N_mis d_C`` where ``N_mis`` counts the
        *faulted* mismatch matrix, and dead rows read the timeout."""
        rng = np.random.default_rng(42)
        config = TDAMConfig(n_stages=24)
        for trial in range(10):
            n_rows = int(rng.integers(2, 9))
            array = FastTDAMArray(config, n_rows=n_rows)
            array.write_all(rng.integers(0, 4, size=(n_rows, 24)))
            injector = FaultInjector(config, n_rows, seed=int(trial))
            faults = injector.draw(
                n_stuck_mismatch=int(rng.integers(0, 9)),
                n_stuck_match=int(rng.integers(0, 9)),
                n_dead_rows=int(rng.integers(0, n_rows + 1)),
            )
            faulty = FaultyTDAMArray(array, faults)
            query = rng.integers(0, 4, size=24)
            result = faulty.search(query)
            mism = faulted_mismatch_matrix(faulty, query)
            timing = array.timing
            expected = (
                2 * config.n_stages * timing.d_inv
                + mism.sum(axis=1) * timing.d_c
            )
            assert np.allclose(result.delays_s, expected, rtol=0, atol=0)
            dead = {
                f.row for f in faults if f.kind == FaultType.DEAD_ROW
            }
            for row in dead:
                assert result.delays_s[row] == pytest.approx(
                    timing.chain_delay(config.n_stages)
                )

    def test_fault_free_search_matches_clean(self, clean_array):
        """fault_free_search ignores the fault map entirely."""
        array, stored = clean_array
        faulty = FaultyTDAMArray(
            array,
            [
                Fault(FaultType.DEAD_ROW, row=0),
                Fault(FaultType.STUCK_MISMATCH, row=1, stage=3),
            ],
        )
        clean = array.search(stored[1])
        reference = faulty.fault_free_search(stored[1])
        assert np.array_equal(
            clean.hamming_distances, reference.hamming_distances
        )
        assert clean.best_row == reference.best_row


class TestErrorStatistics:
    def test_single_cell_fault_bounds_error(self, clean_array):
        """One stuck cell moves any distance by at most one."""
        array, _ = clean_array
        faulty = FaultyTDAMArray(
            array, [Fault(FaultType.STUCK_MISMATCH, row=2, stage=5)]
        )
        queries = np.random.default_rng(1).integers(0, 4, size=(12, 16))
        stats = search_error_statistics(faulty, queries)
        assert stats["max_abs_error"] <= 1.0

    def test_dead_row_errors_dominate(self, clean_array):
        array, _ = clean_array
        faulty = FaultyTDAMArray(array, [Fault(FaultType.DEAD_ROW, row=0)])
        queries = np.random.default_rng(1).integers(0, 4, size=(12, 16))
        stats = search_error_statistics(faulty, queries)
        assert stats["max_abs_error"] >= 4.0
