"""Tests of the march-style BIST diagnosis."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultType, FaultyTDAMArray
from repro.devices.variation import VariationModel
from repro.resilience import bist as bist_module
from repro.resilience.bist import (
    CellFaultKind,
    DiagnosisReport,
    MarchBIST,
    default_backgrounds,
)
from tests.oracles import march_bist_loop


def make_dut(faults, n_rows=5, n_stages=16):
    config = TDAMConfig(n_stages=n_stages)
    array = FastTDAMArray(config, n_rows=n_rows)
    return FaultyTDAMArray(array, faults)


class TestBackgrounds:
    def test_default_backgrounds_multilevel(self):
        patterns = default_backgrounds(8, 4)
        assert len(patterns) == 3
        assert (patterns[0] == 0).all()
        assert (patterns[1] == 3).all()
        assert set(np.unique(patterns[2])) == {0, 3}

    def test_binary_has_no_distinct_checkerboard_ends(self):
        patterns = default_backgrounds(8, 2)
        assert len(patterns) == 3
        assert (patterns[1] == 1).all()

    def test_single_level_degenerates(self):
        assert len(default_backgrounds(8, 1)) == 2


class TestDiagnosis:
    def test_healthy_array(self):
        report = MarchBIST().run(make_dut([]))
        assert report.is_healthy
        assert report.dead_rows == ()
        assert report.faulty_cells == ()
        assert report.healthy_rows == (0, 1, 2, 3, 4)

    def test_stuck_mismatch_located_and_classified(self):
        report = MarchBIST().run(
            make_dut([Fault(FaultType.STUCK_MISMATCH, row=1, stage=3)])
        )
        verdict = report.rows[1]
        assert not verdict.dead
        assert verdict.faulty_stages == (3,)
        assert verdict.stuck_mismatch_count == 1
        (cell,) = report.faulty_cells
        assert (cell.row, cell.stage) == (1, 3)
        assert cell.kind == CellFaultKind.STUCK_MISMATCH

    def test_stuck_match_located_and_classified(self):
        report = MarchBIST().run(
            make_dut([Fault(FaultType.STUCK_MATCH, row=4, stage=7)])
        )
        verdict = report.rows[4]
        assert verdict.faulty_stages == (7,)
        assert verdict.stuck_mismatch_count == 0
        (cell,) = report.faulty_cells
        assert cell.kind == CellFaultKind.STUCK_MATCH

    def test_mixed_faults_report_unknown_kind(self):
        """The documented diagnosability limit: mixed kinds on one row
        pin the positions but not which is which."""
        report = MarchBIST().run(
            make_dut(
                [
                    Fault(FaultType.STUCK_MISMATCH, row=2, stage=1),
                    Fault(FaultType.STUCK_MATCH, row=2, stage=9),
                ]
            )
        )
        verdict = report.rows[2]
        assert verdict.faulty_stages == (1, 9)
        assert verdict.stuck_mismatch_count == 1
        assert {c.kind for c in report.faulty_cells} == {
            CellFaultKind.UNKNOWN
        }

    def test_dead_row_detected(self):
        report = MarchBIST().run(
            make_dut([Fault(FaultType.DEAD_ROW, row=2)])
        )
        assert report.dead_rows == (2,)
        assert report.rows[2].faulty_stages == ()
        assert not report.rows[2].healthy

    def test_multi_row_fault_map(self):
        report = MarchBIST().run(
            make_dut(
                [
                    Fault(FaultType.STUCK_MISMATCH, row=0, stage=5),
                    Fault(FaultType.DEAD_ROW, row=3),
                    Fault(FaultType.STUCK_MATCH, row=4, stage=0),
                ]
            )
        )
        assert report.rows[0].faulty_stages == (5,)
        assert report.dead_rows == (3,)
        assert report.rows[4].faulty_stages == (0,)
        assert report.healthy_rows == (1, 2)

    def test_cost_accounting(self):
        report = MarchBIST().run(make_dut([], n_rows=4, n_stages=8))
        patterns = 3  # levels=4 -> low, high, checkerboard
        assert report.n_writes == patterns * 4
        assert report.n_searches == patterns * (8 + 1)

    def test_runs_on_bare_array(self):
        config = TDAMConfig(n_stages=8)
        report = MarchBIST().run(FastTDAMArray(config, n_rows=3))
        assert report.is_healthy

    def test_custom_background_validation(self):
        bist = MarchBIST(backgrounds=[np.zeros(3, dtype=np.int64)])
        with pytest.raises(ValueError, match="background shape"):
            bist.run(make_dut([]))

    def test_summary_mentions_damage(self):
        report = MarchBIST().run(
            make_dut([Fault(FaultType.DEAD_ROW, row=2)])
        )
        assert "1 dead rows" in report.summary()
        assert isinstance(report, DiagnosisReport)


@st.composite
def march_cases(draw):
    """(make, bist, probes): a factory of identical devices under test
    at 1-3 bits -- a fault-map wrapper with stuck cells and dead rows,
    or a bare array, with or without variation -- a march with default
    or custom backgrounds, and the probes per ``search_batch`` block."""
    bits = draw(st.integers(1, 3))
    n_stages = draw(st.integers(1, 20))
    n_rows = draw(st.integers(1, 6))
    levels = 2**bits
    config = TDAMConfig(bits=bits, n_stages=n_stages)
    cells = st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_stages - 1)
    )
    faults = [
        Fault(kind, row, stage)
        for kind, (row, stage) in draw(
            st.lists(
                st.tuples(st.sampled_from(list(FaultType)), cells),
                max_size=8,
            )
        )
    ]
    wrapped = draw(st.booleans())
    seed = draw(st.none() | st.integers(0, 996))
    backgrounds = None
    if draw(st.booleans()):
        backgrounds = [
            np.asarray(p, dtype=np.int64)
            for p in draw(
                st.lists(
                    st.lists(
                        st.integers(0, levels - 1),
                        min_size=n_stages,
                        max_size=n_stages,
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
        ]

    def make():
        variation = None if seed is None else VariationModel(
            sigma_mv=30.0, seed=seed
        )
        array = FastTDAMArray(config, n_rows, variation=variation)
        return FaultyTDAMArray(array, faults) if wrapped else array

    probes = draw(st.integers(1, n_stages + 2))
    return make, MarchBIST(backgrounds=backgrounds), probes


class TestBlockedMarch:
    """``run`` searches in blocks of probes; its report equals the
    march that searched one probe at a time."""

    @settings(max_examples=120, deadline=None)
    @given(case=march_cases())
    def test_report_is_the_probe_loop(self, case):
        make, bist, probes = case
        dut = make()
        block_bytes = 8 * dut.config.n_stages * probes
        with mock.patch.object(bist_module, "_PROBE_BLOCK_BYTES", block_bytes):
            got = bist.run(dut)
        assert got == march_bist_loop(bist, make())

    def test_bad_background_shape_is_the_probe_loop(self):
        bist = MarchBIST(
            backgrounds=[np.zeros(8, dtype=np.int64), np.zeros(3, dtype=np.int64)]
        )
        for run in (bist.run, lambda dut: march_bist_loop(bist, dut)):
            with pytest.raises(ValueError) as info:
                run(make_dut([], n_stages=8))
            assert str(info.value) == "background shape (3,) != (8,)"

    def test_hdc_shard_geometry_in_bounded_memory(self):
        # The hdc-refresh shard: 26 rows + 2 spares x 2048 stages, 2
        # bits.  A whole background's 2049 probes in one batch peaked at
        # 71.7 MiB under tracemalloc; in blocks of 64 probes it stays
        # below 8 MiB.  Faults on the first and last stage make the last
        # block, which holds stage 2047 alone, count.
        config = TDAMConfig(bits=2, n_stages=2048, vdd=0.6)
        faults = [
            Fault(FaultType.STUCK_MISMATCH, row=1, stage=0),
            Fault(FaultType.STUCK_MATCH, row=4, stage=2047),
            Fault(FaultType.STUCK_MISMATCH, row=27, stage=2047),
            Fault(FaultType.DEAD_ROW, row=9),
        ]

        def make():
            return FaultyTDAMArray(FastTDAMArray(config, 28), faults)

        dut = make()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = MarchBIST().run(dut)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert report.rows[4].faulty_stages == (2047,)
        assert report.rows[27].faulty_stages == (2047,)
        assert report.dead_rows == (9,)
        assert report == march_bist_loop(MarchBIST(), make())
