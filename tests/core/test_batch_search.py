"""Exact-equivalence tests of the batched search engine.

The contract of :meth:`FastTDAMArray.search_batch` (and the faulty /
resilient wrappers on top of it) is that batching changes *throughput
only*: every per-query slice must match the scalar ``search()`` result
bit-for-bit -- delays, TDC counts, decoded distances, energy, and the
distance -> delay -> row winner resolution.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import (
    BatchSearchResult,
    FastTDAMArray,
    calibrate_turn_on_overdrive,
    resolve_best_batch,
)
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultInjector, FaultType, FaultyTDAMArray
from repro.devices.variation import VariationModel
from repro.resilience.resilient import (
    ResilientSearchResult,
    ResilientTDAMArray,
)
from repro.service.checkpoint import ServiceCheckpointer
from repro.telemetry.metrics import get_registry
from repro.telemetry.state import enabled_scope
from tests.oracles import batched_mismatch_counts


def assert_batch_matches_scalar(array_like, batch, queries):
    """Bit-for-bit comparison of a batch result against looped search."""
    for i, query in enumerate(queries):
        scalar = array_like.search(query)
        assert np.array_equal(batch.delays_s[i], scalar.delays_s)
        assert np.array_equal(batch.counts[i], scalar.counts)
        assert np.array_equal(
            batch.hamming_distances[i], scalar.hamming_distances
        )
        assert int(batch.best_rows[i]) == scalar.best_row
        assert float(batch.latencies_s[i]) == scalar.latency_s
        assert float(batch.energies_j[i]) == scalar.energy_j


@pytest.fixture
def queries(config, rng):
    return rng.integers(0, config.levels, (48, config.n_stages))


class TestCleanEquivalence:
    @pytest.fixture
    def array(self, config, rng):
        array = FastTDAMArray(config, n_rows=12)
        array.write_all(rng.integers(0, config.levels, (12, config.n_stages)))
        return array

    def test_bit_exact_without_variation(self, array, queries):
        assert_batch_matches_scalar(array, array.search_batch(queries), queries)

    def test_bit_exact_with_variation(self, config, rng, queries):
        array = FastTDAMArray(
            config, n_rows=12, variation=VariationModel(seed=7)
        )
        array.write_all(rng.integers(0, config.levels, (12, config.n_stages)))
        assert_batch_matches_scalar(array, array.search_batch(queries), queries)

    def test_bit_exact_with_measured_sigmas(self, config, rng, queries):
        array = FastTDAMArray(
            config, n_rows=6, variation=VariationModel(sigma_mv=None, seed=3)
        )
        array.write_all(rng.integers(0, config.levels, (6, config.n_stages)))
        assert_batch_matches_scalar(array, array.search_batch(queries), queries)

    @pytest.mark.parametrize("chunk", [1, 7, 48, 1000])
    def test_chunk_size_does_not_change_results(self, array, queries, chunk):
        reference = array.search_batch(queries)
        chunked = array.search_batch(queries, chunk=chunk)
        assert np.array_equal(reference.delays_s, chunked.delays_s)
        assert np.array_equal(reference.best_rows, chunked.best_rows)

    def test_tie_breaks_match_scalar(self, config):
        # Duplicate rows force distance *and* delay ties; the winner must
        # resolve to the lowest row index in both paths.
        array = FastTDAMArray(config, n_rows=6)
        row = [1] * config.n_stages
        array.write_all([row] * 6)
        queries = np.array([row, [0] * config.n_stages])
        batch = array.search_batch(queries)
        assert_batch_matches_scalar(array, batch, queries)
        assert batch.best_rows.tolist() == [0, 0]

    def test_single_query_batch(self, array, queries):
        batch = array.search_batch(queries[:1])
        assert len(batch) == 1
        assert_batch_matches_scalar(array, batch, queries[:1])

    def test_result_reconstructs_search_result(self, array, queries):
        batch = array.search_batch(queries)
        single = batch.result(3)
        scalar = array.search(queries[3])
        assert np.array_equal(single.delays_s, scalar.delays_s)
        assert single.best_row == scalar.best_row
        assert single.energy_j == scalar.energy_j

    def test_result_index_out_of_range(self, array, queries):
        batch = array.search_batch(queries)
        with pytest.raises(IndexError, match="out of range"):
            batch.result(len(queries))

    def test_top_k_matches_scalar(self, array, queries):
        batch = array.search_batch(queries)
        top = batch.top_k(4)
        assert top.shape == (len(queries), 4)
        for i, query in enumerate(queries):
            assert np.array_equal(top[i], array.search(query).top_k(4))

    def test_top_k_rejects_bad_k(self, array, queries):
        batch = array.search_batch(queries)
        with pytest.raises(ValueError, match="k must be"):
            batch.top_k(0)
        with pytest.raises(ValueError, match="k must be"):
            batch.top_k(array.n_rows + 1)

    def test_similarities(self, array, queries):
        batch = array.search_batch(queries)
        assert np.array_equal(
            batch.similarities,
            array.config.n_stages - batch.hamming_distances,
        )

    def test_rejects_search_before_write(self, config, queries):
        blank = FastTDAMArray(config, n_rows=4)
        with pytest.raises(RuntimeError, match="before all rows"):
            blank.search_batch(queries)

    def test_rejects_wrong_query_length(self, array, config):
        with pytest.raises(ValueError, match="query length"):
            array.search_batch(np.zeros((3, config.n_stages + 1), dtype=int))

    def test_rejects_out_of_range_levels(self, array, config):
        bad = np.full((2, config.n_stages), config.levels)
        with pytest.raises(ValueError, match="elements must be"):
            array.search_batch(bad)

    def test_mismatch_tensor_slices_equal_matrix(self, array, queries):
        tensor = array.mismatch_tensor(queries[:5])
        for i in range(5):
            assert np.array_equal(
                tensor[i], array.mismatch_matrix(queries[i])
            )

    def test_mismatch_count_batch_matches_tensor(self, array, queries):
        counts = array.mismatch_count_batch(queries)
        assert np.array_equal(
            counts, array.mismatch_tensor(queries).sum(axis=2)
        )


class TestResolveBestBatch:
    def test_matches_lexsort_rule(self, rng):
        distances = rng.integers(0, 4, (64, 9))
        delays = rng.random((64, 9))
        delays[distances == 2] = 0.5  # manufacture delay ties too
        best = resolve_best_batch(distances, delays)
        for i in range(64):
            order = np.lexsort(
                (np.arange(9), delays[i], distances[i])
            )
            assert best[i] == order[0]


class TestWriteAllVectorization:
    def test_bit_identical_to_row_loop(self, config, rng):
        matrix = rng.integers(0, config.levels, (9, config.n_stages))
        vectorized = FastTDAMArray(
            config, n_rows=9, variation=VariationModel(seed=21)
        )
        looped = FastTDAMArray(
            config, n_rows=9, variation=VariationModel(seed=21)
        )
        vectorized.write_all(matrix)
        for row in range(9):
            looped.write(row, matrix[row])
        assert np.array_equal(vectorized._off_a, looped._off_a)
        assert np.array_equal(vectorized._off_b, looped._off_b)
        query = rng.integers(0, config.levels, config.n_stages)
        assert np.array_equal(
            vectorized.search(query).delays_s, looped.search(query).delays_s
        )

    def test_write_all_rejects_wrong_width(self, config):
        array = FastTDAMArray(config, n_rows=2)
        with pytest.raises(ValueError, match="n_stages"):
            array.write_all(np.zeros((2, config.n_stages + 1), dtype=int))

    def test_write_all_rejects_wrong_rows(self, config):
        array = FastTDAMArray(config, n_rows=2)
        with pytest.raises(ValueError, match="rows"):
            array.write_all(np.zeros((3, config.n_stages), dtype=int))


class TestThresholdCache:
    """The write-time threshold cache must never serve stale tensors."""

    def _fresh(self, config, matrix, off_a, off_b):
        array = FastTDAMArray(config, n_rows=len(matrix))
        array.write_all(matrix)
        array._off_a = off_a
        array._off_b = off_b
        return array

    def test_wholesale_assignment_invalidates(self, config, rng):
        matrix = rng.integers(0, config.levels, (5, config.n_stages))
        query = rng.integers(0, config.levels, config.n_stages)
        array = FastTDAMArray(config, n_rows=5)
        array.write_all(matrix)
        array.search(query)  # populate the cache
        off = rng.normal(0.0, 0.05, (5, config.n_stages))
        array._off_a = off
        array._off_b = -off
        reference = self._fresh(config, matrix, off, -off)
        assert np.array_equal(
            array.search(query).delays_s, reference.search(query).delays_s
        )

    def test_explicit_invalidate_after_inplace_mutation(self, config, rng):
        matrix = rng.integers(0, config.levels, (5, config.n_stages))
        query = rng.integers(0, config.levels, config.n_stages)
        array = FastTDAMArray(config, n_rows=5)
        array.write_all(matrix)
        array.search(query)  # populate the cache
        off = rng.normal(0.0, 0.05, (5, config.n_stages))
        array._off_a[:] = off
        array.invalidate_threshold_cache()
        reference = self._fresh(
            config, matrix, off, np.zeros_like(off)
        )
        assert np.array_equal(
            array.search(query).delays_s, reference.search(query).delays_s
        )

    def test_write_all_after_search_invalidates_tables(self, config, rng):
        array = FastTDAMArray(config, n_rows=4)
        first = rng.integers(0, config.levels, (4, config.n_stages))
        second = rng.integers(0, config.levels, (4, config.n_stages))
        queries = rng.integers(0, config.levels, (6, config.n_stages))
        array.write_all(first)
        array.search_batch(queries)  # populate the level tables
        array.write_all(second)
        fresh = FastTDAMArray(config, n_rows=4)
        fresh.write_all(second)
        assert np.array_equal(
            array.search_batch(queries).delays_s,
            fresh.search_batch(queries).delays_s,
        )

    def test_rewrite_refreshes_cached_row(self, config, rng):
        matrix = rng.integers(0, config.levels, (5, config.n_stages))
        array = FastTDAMArray(config, n_rows=5)
        array.write_all(matrix)
        query = rng.integers(0, config.levels, config.n_stages)
        array.search(query)  # populate the cache
        new_row = rng.integers(0, config.levels, config.n_stages)
        array.write(2, new_row)
        fresh = FastTDAMArray(config, n_rows=5)
        updated = matrix.copy()
        updated[2] = new_row
        fresh.write_all(updated)
        assert np.array_equal(
            array.search(query).delays_s, fresh.search(query).delays_s
        )


class TestTurnOnCalibrationMemo:
    def test_memo_hit_is_bit_identical(self, config):
        first = calibrate_turn_on_overdrive(config)
        second = calibrate_turn_on_overdrive(config)
        assert first == second

    def test_matches_array_calibration(self, config):
        array = FastTDAMArray(config, n_rows=1)
        assert array.turn_on_overdrive == calibrate_turn_on_overdrive(config)

    def test_distinct_design_points_get_distinct_entries(self, config):
        low_vdd = config.with_(vdd=config.vdd * 0.75)
        assert calibrate_turn_on_overdrive(config) != calibrate_turn_on_overdrive(
            low_vdd
        )


class TestBatchedMismatchCountsKernel:
    def test_matches_fast_array(self, config, rng, queries):
        array = FastTDAMArray(
            config, n_rows=7, variation=VariationModel(seed=4)
        )
        array.write_all(rng.integers(0, config.levels, (7, config.n_stages)))
        vth = np.array(config.vth_levels)
        vth_a = vth[array._stored] + array._off_a
        vth_b = vth[config.levels - 1 - array._stored] + array._off_b
        counts = batched_mismatch_counts(
            queries,
            vth_a,
            vth_b,
            np.array(config.vsl_levels),
            config.levels,
            array.turn_on_overdrive,
        )
        assert np.array_equal(counts, array.mismatch_count_batch(queries))

    def test_rejects_bad_chunk(self, config, rng, queries):
        array = FastTDAMArray(config, n_rows=3)
        array.write_all(rng.integers(0, config.levels, (3, config.n_stages)))
        with pytest.raises(ValueError, match="chunk"):
            array.search_batch(queries, chunk=0)


class TestFaultyEquivalence:
    @pytest.fixture
    def faulty(self, config, rng):
        array = FastTDAMArray(
            config, n_rows=10, variation=VariationModel(seed=5)
        )
        array.write_all(rng.integers(0, config.levels, (10, config.n_stages)))
        faults = FaultInjector(config, 10, seed=13).draw(
            n_stuck_mismatch=4, n_stuck_match=4, n_dead_rows=2
        )
        return FaultyTDAMArray(array, faults)

    def test_bit_exact_vs_scalar(self, faulty, queries):
        assert_batch_matches_scalar(
            faulty, faulty.search_batch(queries), queries
        )

    def test_fault_free_batch_matches_scalar(self, faulty, queries):
        batch = faulty.fault_free_search_batch(queries)
        for i, query in enumerate(queries):
            scalar = faulty.fault_free_search(query)
            assert np.array_equal(batch.delays_s[i], scalar.delays_s)
            assert int(batch.best_rows[i]) == scalar.best_row

    def test_masked_stages_zero_the_columns(self, faulty, queries):
        masked = (0, 5)
        counts = faulty.mismatch_count_batch(queries, masked_stages=masked)
        for i in range(len(queries)):
            mism = faulty.faulted_mismatch_matrix(queries[i])
            mism[:, list(masked)] = False
            assert np.array_equal(counts[i], mism.sum(axis=1))


class TestResilientEquivalence:
    @pytest.fixture
    def resilient(self, config, rng):
        faults = FaultInjector(config, 10, seed=6).draw(
            n_stuck_mismatch=2, n_stuck_match=1, n_dead_rows=1
        )
        array = ResilientTDAMArray(
            config,
            n_rows=8,
            n_spares=2,
            faults=faults,
            variation=VariationModel(seed=8),
            max_masked_stages=0,
        )
        array.write_all(
            rng.integers(0, config.levels, (8, config.n_stages))
        )
        array.self_test_and_repair()
        return array

    def test_bit_exact_vs_scalar(self, resilient, queries):
        batch = resilient.search_batch(queries)
        for i, query in enumerate(queries):
            scalar = resilient.search(query)
            assert np.array_equal(
                batch.hamming_distances[i], scalar.hamming_distances
            )
            assert np.array_equal(batch.delays_s[i], scalar.delays_s)
            assert int(batch.best_rows[i]) == scalar.best_row
            assert float(batch.latencies_s[i]) == scalar.latency_s
            assert float(batch.energies_j[i]) == scalar.energy_j
            assert batch.degraded == scalar.degraded

    def test_bit_exact_after_drift(self, resilient, queries):
        resilient.advance_time(3.0e5)
        batch = resilient.search_batch(queries)
        for i, query in enumerate(queries):
            scalar = resilient.search(query)
            assert np.array_equal(batch.delays_s[i], scalar.delays_s)
            assert int(batch.best_rows[i]) == scalar.best_row

    def test_result_reconstruction(self, resilient, queries):
        batch = resilient.search_batch(queries)
        single = batch.result(0)
        scalar = resilient.search(queries[0])
        assert np.array_equal(
            single.hamming_distances, scalar.hamming_distances
        )
        assert single.best_row == scalar.best_row
        assert single.confidence == scalar.confidence
        assert single.retired_rows == scalar.retired_rows

    def test_returns_batch_type(self, resilient, queries):
        assert isinstance(
            resilient._physical.search_batch(
                np.clip(queries, 0, resilient.config.levels - 1)
            ),
            BatchSearchResult,
        )


# ----------------------------------------------------------------------
# Properties: sparse fault corrections and cache invalidation
# ----------------------------------------------------------------------
#: A short chain keeps the per-example arrays, BIST marches and scalar
#: oracles cheap.
PROP_CONFIG = TDAMConfig(n_stages=21)


@st.composite
def fault_maps(draw, n_rows):
    """(faults, masked_stages) over ``n_rows`` physical rows.

    Random faults plus the override cases the corrections must replay:
    two stuck faults on one cell in either order, a stuck cell on a
    dead row, and a stuck cell in a column masked twice.
    """
    n_stages = PROP_CONFIG.n_stages
    cells = st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_stages - 1)
    )
    stuck = st.sampled_from(
        [FaultType.STUCK_MISMATCH, FaultType.STUCK_MATCH]
    )
    faults = [
        Fault(kind, row, stage)
        for kind, (row, stage) in draw(
            st.lists(st.tuples(st.sampled_from(list(FaultType)), cells),
                     max_size=8)
        )
    ]
    row, stage = draw(cells)
    pair = [
        Fault(FaultType.STUCK_MISMATCH, row, stage),
        Fault(FaultType.STUCK_MATCH, row, stage),
    ]
    if draw(st.booleans()):
        pair.reverse()
    row, stage = draw(cells)
    on_dead = [Fault(draw(stuck), row, stage), Fault(FaultType.DEAD_ROW, row)]
    if draw(st.booleans()):
        on_dead.reverse()
    row, stage = draw(cells)
    masked = draw(st.lists(st.integers(0, n_stages - 1), max_size=3))
    masked += [stage, stage]
    in_masked = [Fault(draw(stuck), row, stage)]
    return faults + pair + on_dead + in_masked, masked


def faulted_matrix_sums(faulty, queries, masked):
    """Scalar count oracle: each query's faulted mismatch matrix, masked
    columns cleared, summed per row."""
    want = np.zeros((len(queries), faulty.n_rows), dtype=np.int64)
    for i, query in enumerate(queries):
        mism = faulty.faulted_mismatch_matrix(query)
        mism[:, masked] = False
        want[i] = mism.sum(axis=1)
    return want


def assert_resilient_batch_is_the_loop(array, queries):
    """Every field of every batch slice equals the scalar search."""
    batch = array.search_batch(queries)
    assert len(batch) == len(queries)
    for i, query in enumerate(queries):
        got, want = batch.result(i), array.search(query)
        for field in dataclasses.fields(ResilientSearchResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert np.array_equal(a, b), field.name


class TestFaultCorrectionProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(1, 6),
        variation=st.booleans(),
        n_q=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_are_the_faulted_matrix_sums(
        self, data, n_rows, variation, n_q, seed
    ):
        faults, masked = data.draw(fault_maps(n_rows))
        rng = np.random.default_rng(seed)
        array = FastTDAMArray(
            PROP_CONFIG, n_rows,
            variation=VariationModel(seed=seed % 997) if variation else None,
        )
        array.write_all(rng.integers(0, 4, (n_rows, PROP_CONFIG.n_stages)))
        faulty = FaultyTDAMArray(array, faults)
        queries = rng.integers(0, 4, (n_q, PROP_CONFIG.n_stages))
        counts = faulty.mismatch_count_batch(queries, masked_stages=masked)
        want = faulted_matrix_sums(faulty, queries, masked)
        assert counts.shape == want.shape
        assert np.array_equal(counts, want)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        variation=st.booleans(),
        max_masked=st.integers(0, 2),
        n_q=st.integers(0, 4),
        dt=st.floats(1.0e3, 1.0e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_resilient_batch_is_the_search_loop(
        self, data, variation, max_masked, n_q, dt, seed
    ):
        faults, _ = data.draw(fault_maps(8))
        rng = np.random.default_rng(seed)
        array = ResilientTDAMArray(
            PROP_CONFIG, n_rows=6, n_spares=2, faults=faults,
            variation=VariationModel(seed=seed % 997) if variation else None,
            max_masked_stages=max_masked,
        )
        array.write_all(rng.integers(0, 4, (6, PROP_CONFIG.n_stages)))
        queries = rng.integers(0, 4, (n_q, PROP_CONFIG.n_stages))
        array.self_test_and_repair()
        assert_resilient_batch_is_the_loop(array, queries)
        array.advance_time(dt)
        assert_resilient_batch_is_the_loop(array, queries)


FAST_STEPS = (
    "write", "write_all", "edit_offsets", "assign_offsets", "assign_vsl",
    "nominal", "search_batch", "count_batch",
)
RESILIENT_STEPS = FAST_STEPS + (
    "advance_time", "self_test_and_repair", "save", "restore",
)


def apply_step(step, array, rng, physical, checkpoint=None):
    """One mutation (or cache-warming search) of a sequence test."""
    n_rows, n_stages = array.n_rows, PROP_CONFIG.n_stages
    queries = rng.integers(0, 4, (3, n_stages))
    if step == "write":
        array.write(int(rng.integers(n_rows)), rng.integers(0, 4, n_stages))
    elif step == "write_all":
        array.write_all(rng.integers(0, 4, (n_rows, n_stages)))
    elif step == "edit_offsets":
        physical._off_a[rng.integers(physical.n_rows)] += 0.08
        physical._off_b[:, rng.integers(n_stages)] -= 0.05
        physical.invalidate_threshold_cache()
    elif step == "assign_offsets":
        physical._off_a = rng.normal(0.0, 0.04, physical._off_a.shape)
    elif step == "assign_vsl":
        physical._vsl = physical._vsl_nom + rng.normal(0.0, 0.03, 4)
    elif step == "nominal":
        physical._off_a = np.zeros_like(physical._off_a)
        physical._off_b = np.zeros_like(physical._off_b)
        physical._vsl = physical._vsl_nom.copy()
    elif step == "search_batch":
        array.search_batch(queries)
    elif step == "count_batch":
        physical.mismatch_count_batch(queries)
    elif step == "advance_time":
        array.advance_time(float(rng.uniform(1.0e3, 1.0e6)))
    elif step == "self_test_and_repair":
        array.self_test_and_repair()
    elif step == "save":
        checkpoint.save(array)
    elif step == "restore":
        checkpoint.restore(array)
    else:
        raise AssertionError(step)


def assert_counts_are_the_loop(array, counter, loop, rng):
    """The packed counts of one query batch equal the reference loop and
    the cache-free recompute, and the batched search equals the scalar
    search loop."""
    physical = array if isinstance(array, FastTDAMArray) else array._physical
    queries = rng.integers(0, 4, (5, PROP_CONFIG.n_stages))
    assert np.array_equal(counter(queries), loop(queries))
    if array is physical:
        assert_batch_matches_scalar(array, array.search_batch(queries), queries)
    else:
        assert_resilient_batch_is_the_loop(array, queries)
    vth = np.array(PROP_CONFIG.vth_levels)
    stored = physical._stored
    clean = batched_mismatch_counts(
        queries,
        vth[stored] + physical._off_a,
        vth[PROP_CONFIG.levels - 1 - stored] + physical._off_b,
        physical._vsl,
        PROP_CONFIG.levels,
        physical.turn_on_overdrive,
    )
    assert np.array_equal(physical.mismatch_count_batch(queries), clean)
    assert np.array_equal(physical._counts_loop(queries), clean)


class TestCacheInvalidationSequence:
    @settings(max_examples=100, deadline=None)
    @given(
        variation=st.booleans(),
        steps=st.lists(st.sampled_from(FAST_STEPS), min_size=1, max_size=10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fast_array(self, variation, steps, seed):
        rng = np.random.default_rng(seed)
        array = FastTDAMArray(
            PROP_CONFIG, 5,
            variation=VariationModel(seed=seed % 997) if variation else None,
        )
        array.write_all(rng.integers(0, 4, (5, PROP_CONFIG.n_stages)))
        for step in steps:
            apply_step(step, array, rng, array)
            assert_counts_are_the_loop(
                array, array.mismatch_count_batch, array._counts_loop, rng
            )

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        variation=st.booleans(),
        steps=st.lists(
            st.sampled_from(RESILIENT_STEPS), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_resilient_array(self, data, variation, steps, seed):
        faults, _ = data.draw(fault_maps(7))
        rng = np.random.default_rng(seed)
        array = ResilientTDAMArray(
            PROP_CONFIG, n_rows=5, n_spares=2, faults=faults,
            variation=VariationModel(seed=seed % 997) if variation else None,
        )
        array.write_all(rng.integers(0, 4, (5, PROP_CONFIG.n_stages)))

        def counter(queries):
            return array._backing.mismatch_count_batch(
                queries, masked_stages=array._masked
            )

        def loop(queries):
            return faulted_matrix_sums(array._backing, queries, array._masked)

        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = ServiceCheckpointer(Path(tmp) / "shard.npz")
            checkpoint.save(array)
            for step in steps:
                apply_step(step, array, rng, array._physical, checkpoint)
                assert_counts_are_the_loop(array, counter, loop, rng)


class TestNominalRewriteSkipsTableRebuild:
    """Under nominal timing the XOR path reads no level table, so a
    rewrite costs a bit-plane repack, never a table rebuild."""

    @pytest.mark.parametrize("resilient", [False, True])
    def test_write_all_then_search_adds_no_rebuild(
        self, config, rng, resilient
    ):
        if resilient:
            array = ResilientTDAMArray(config, n_rows=10, n_spares=2)
        else:
            array = FastTDAMArray(config, n_rows=12)
        rows = array.n_rows
        queries = rng.integers(0, config.levels, (6, config.n_stages))
        rebuilds = get_registry().get("tdam_threshold_cache_events_total")
        with enabled_scope():
            array.write_all(
                rng.integers(0, config.levels, (rows, config.n_stages))
            )
            array.search_batch(queries)
            before = rebuilds.value(op="rebuild")
            array.write_all(
                rng.integers(0, config.levels, (rows, config.n_stages))
            )
            batch = array.search_batch(queries)
            assert rebuilds.value(op="rebuild") == before
        for i, query in enumerate(queries):
            assert np.array_equal(batch.delays_s[i], array.search(query).delays_s)

    @pytest.mark.parametrize("resilient", [False, True])
    def test_fresh_array_builds_no_float_tables(self, config, rng, resilient):
        # Geometries no other test uses, so no earlier call in the
        # process has seen them.
        if resilient:
            array = ResilientTDAMArray(config, n_rows=9, n_spares=2)
            physical = array._physical
        else:
            array = FastTDAMArray(config, n_rows=17)
            physical = array
        queries = rng.integers(0, config.levels, (6, config.n_stages))
        rebuilds = get_registry().get("tdam_threshold_cache_events_total")
        with enabled_scope():
            array.write_all(
                rng.integers(0, config.levels, (array.n_rows, config.n_stages))
            )
            before = rebuilds.value(op="rebuild")
            array.search_batch(queries)
            array.top_k_batch(queries, 3)
            assert rebuilds.value(op="rebuild") == before
        assert not physical._tables_valid
