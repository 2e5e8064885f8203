"""Smoke + shape tests of every experiment driver (reduced sizes).

Each test checks the *paper-level claim* the figure makes, not just that
the driver runs: linearity for Fig. 4, diagonal contours for Fig. 5,
margin yield for Fig. 6, precision/dimension trends for Fig. 7, and the
speedup attenuation for Fig. 8.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_ablation_precision_margin,
    run_ablation_quantizer,
    run_ablation_two_step,
    run_ablation_vc_vs_vr,
)
from repro.experiments.fig1_device import format_fig1, run_fig1
from repro.experiments.fig2_cell import format_fig2, run_fig2
from repro.experiments.fig4_linearity import format_fig4, run_fig4
from repro.experiments.fig5_energy_delay import (
    format_fig5_ab,
    format_fig5_cd,
    run_fig5_ab,
    run_fig5_cd,
)
from repro.experiments.fig6_montecarlo import format_fig6, run_fig6
from repro.experiments.ext_encode import (
    format_encode_study,
    run_encode_study,
)
from repro.experiments.ext_resilience import run_resilience_study
from repro.experiments.fig7_hdc_accuracy import format_fig7, run_fig7
from repro.experiments.fig8_gpu_comparison import format_fig8, run_fig8
from repro.experiments.table1_comparison import format_table1, run_table1


class TestFig1:
    def test_states_separated_and_spread(self):
        result = run_fig1(n_devices=8, n_points=15)
        assert result.model_curves.shape == (4, 15)
        assert result.ensemble_curves.shape == (4, 8, 15)
        # At mid bias, programmed states are ordered by V_TH.
        mid = np.argmin(np.abs(result.vg - 0.8))
        at_bias = result.model_curves[:, mid]
        assert (np.diff(at_bias) < 0).all()
        assert "state" in format_fig1(result)


class TestFig2:
    def test_match_and_mismatch_outcomes(self):
        result = run_fig2(stored=1, queries=(0, 1, 2), dt=4e-12)
        by_query = {c.query: c for c in result.cases}
        assert not by_query[0].mn_high and by_query[0].conducting == "FB"
        assert by_query[1].mn_high and by_query[1].conducting == "none"
        assert not by_query[2].mn_high and by_query[2].conducting == "FA"
        assert "MN_state" in format_fig2(result)


class TestFig4:
    def test_analytic_linearity(self):
        result = run_fig4(n_stages=32, backend="analytic")
        assert result.r_squared > 0.999999
        slope, _ = result.linear_fit
        assert slope > 0

    def test_transient_linearity(self):
        result = run_fig4(
            n_stages=4, backend="transient",
            mismatch_counts=(0, 1, 2, 3, 4), dt=4e-12,
        )
        assert result.r_squared > 0.98

    def test_rising_falling_split(self):
        result = run_fig4(n_stages=8, backend="analytic",
                          mismatch_counts=(0, 4, 8))
        total = result.delays_rising_s + result.delays_falling_s
        assert np.allclose(total, result.delays_total_s)
        assert "linear fit" in format_fig4(result)

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_fig4(backend="spice")


class TestFig5:
    def test_ab_diagonal_contours(self):
        """Energy ~ C_load * N: doubling either doubles the load term."""
        result = run_fig5_ab(c_loads_f=[6e-15, 12e-15],
                             stage_counts=[8, 16])
        e = result.energy_grid()
        d = result.delay_grid()
        assert e.shape == (2, 2)
        # (2C, N) and (C, 2N) land close to each other.
        assert e[1, 0] == pytest.approx(e[0, 1], rel=0.35)
        assert d[1, 0] == pytest.approx(d[0, 1], rel=0.35)
        assert "c_load_fF" in format_fig5_ab(result)

    def test_cd_vdd_scaling_trends(self):
        result = run_fig5_cd(vdds=(0.6, 0.8, 1.1), stage_counts=(32, 64))
        # Energy rises with V_DD, latency falls.
        assert (np.diff(result.energy_j[:, 0]) > 0).all()
        assert (np.diff(result.latency_s[:, 0]) < 0).all()
        # Longer chains cost proportionally more.
        assert np.allclose(
            result.energy_j[:, 1] / result.energy_j[:, 0], 2.0, rtol=0.05
        )
        assert "best energy efficiency" in format_fig5_cd(result)


class TestFig6:
    def test_margin_yield_high_and_spread_grows(self):
        result = run_fig6(stage_counts=(64,), sigmas_mv=(20.0, 60.0),
                          n_runs=120)
        assert len(result.cells) == 2
        stds = [c.mc.std for c in result.cells]
        assert stds[1] > stds[0]
        # The paper's claim: vast majority within the sensing margin.
        for cell in result.cells:
            assert cell.margin.yield_fraction > 0.95
        assert "yield" in format_fig6(result)

    def test_longer_chains_spread_more(self):
        result = run_fig6(stage_counts=(64, 128), sigmas_mv=(60.0,),
                          n_runs=120)
        by_stages = {c.n_stages: c for c in result.cells}
        assert by_stages[128].mc.std > by_stages[64].mc.std


class TestResilienceStudy:
    def test_records_are_pinned(self):
        # Every record field, bit for bit; a NaN field (no trial fully
        # repaired) must stay NaN.
        result = run_resilience_study(
            spare_counts=(0, 2), n_rows=6, n_trials=4, n_queries=4, seed=17
        )
        expected = [
            (0, 0.002, 0.05, 0.5, 0.5005017022696248, 0.0, 1.0),
            (2, 0.002, 0.05, 1.0, 0.9524532698890679, 0.0, 1.0),
        ]
        found = [dataclasses.astuple(r) for r in result.records]
        assert len(found) == len(expected)
        for row, want in zip(found, expected):
            assert len(row) == len(want)
            for got, value in zip(row, want):
                assert got == value or (math.isnan(got) and math.isnan(value))


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(
            dimensions=(512, 4096),
            precisions=(1, 4, 32),
            dataset_scale=0.25,
            epochs=4,
            include_hamming=False,
        )

    def test_accuracy_improves_with_dimension(self, result):
        for ds in ("isolet", "ucihar", "face"):
            assert result.accuracy(ds, 4096, 1) > result.accuracy(ds, 512, 1)

    def test_more_bits_better_at_low_dimension(self, result):
        for ds in ("isolet", "face"):
            assert (
                result.accuracy(ds, 512, 4)
                >= result.accuracy(ds, 512, 1) - 0.01
            )

    def test_4bit_close_to_reference(self, result):
        for ds in ("isolet", "ucihar", "face"):
            gap = result.accuracy(ds, 4096, 32) - result.accuracy(ds, 4096, 4)
            assert gap < 0.06

    def test_formatting(self, result):
        text = format_fig7(result)
        assert "isolet" in text and "32b" in text

    def test_fabric_encoder_accuracy_recorded(self):
        from repro.datasets.synthetic import standard_suite

        ds = [d for d in standard_suite(scale=0.25) if d.name == "face"]
        result = run_fig7(
            dimensions=(1024,), precisions=(2,), datasets=ds, epochs=4
        )
        (record,) = result.records
        assert record.accuracy_hamming is not None
        assert record.accuracy_fabric is not None
        # The 8b in-fabric encoder costs at most a couple of points.
        assert abs(result.mean_fabric_delta()) < 0.03
        text = format_fig7(result)
        assert "in-fabric encoder cost" in text


class TestEncodeStudy:
    def test_quick_study_runs_and_formats(self):
        result = run_encode_study(quick=True)
        assert result.outcomes.get("ok") == 2 * result.n_queries
        assert 0 <= result.accuracy_fabric_path <= 1
        assert result.encode_cost_per_query.latency_s > 0
        text = format_encode_study(result)
        assert "fabric encode" in text and "modeled encode cost" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(dimensions=(512, 2048, 10240))

    def test_speedup_attenuates_with_dimension(self, result):
        for ds in ("isolet", "ucihar", "face"):
            s = [result.by(ds, d).speedup for d in (512, 2048, 10240)]
            assert s[0] > s[1] > s[2]

    def test_small_d_speedup_in_paper_range(self, result):
        lo, hi = result.speedup_range_at(512)
        assert 150 < lo < hi < 350  # paper: 194..287

    def test_large_d_average_near_paper(self, result):
        assert result.average_speedup_at(10240) == pytest.approx(11.65, rel=0.5)

    def test_energy_efficiency_ranges(self, result):
        assert 4000 < result.average_efficiency_at(512) < 8000
        assert 150 < result.average_efficiency_at(10240) < 600

    def test_tdam_always_wins(self, result):
        for record in result.records:
            assert record.speedup > 1
            assert record.energy_efficiency > 1

    def test_formatting(self, result):
        assert "speedup" in format_fig8(result)


class TestTable1:
    def test_generates_and_formats(self):
        rows = run_table1()
        assert len(rows) == 6
        assert "This work" in format_table1(rows)


class TestAblations:
    def test_vc_more_robust_than_vr(self):
        records = run_ablation_vc_vs_vr(sigmas_mv=(40.0,), n_stages=32,
                                        n_runs=80)
        assert records[0].vc_delay_cv < 0.3 * records[0].vr_delay_cv

    def test_two_step_saves_energy_and_area(self):
        result = run_ablation_two_step()
        assert result.energy_saving > 1.0
        assert result.area_saving > 1.0
        assert result.two_step_latency_s == pytest.approx(
            result.buffer_latency_s
        )

    def test_flip_rate_grows_with_bits(self):
        records = run_ablation_precision_margin(
            bits_list=(1, 2, 3), sigmas_mv=(40.0,), n_cells=1000
        )
        rates = [r.flip_rate for r in records]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[0] < 1e-3  # 1-bit margin is huge

    def test_quantizers_compared(self):
        records = run_ablation_quantizer(bits_list=(1, 4), dimension=1024)
        assert all(0 <= r.equal_area_accuracy <= 1 for r in records)
        # Both quantizers sit within a reasonable band of the reference;
        # at 4 bits the equal-area scheme is essentially lossless.
        four_bit = records[1]
        assert four_bit.equal_area_accuracy >= four_bit.reference_accuracy - 0.05
        one_bit = records[0]
        assert abs(one_bit.equal_area_accuracy - one_bit.uniform_accuracy) < 0.08
