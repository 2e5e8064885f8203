"""Tests of the retention extension experiment and the CLI."""

import pytest

from repro.cli import EXPERIMENTS, REPORT_ORDER, main
from repro.experiments.ext_retention import (
    format_endurance,
    format_retention,
    run_endurance_study,
    run_retention_study,
)


class TestRetentionStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_retention_study(
            times_s=(1.0, 3.2e7, 3.2e8), n_rows=6, n_queries=6
        )

    def test_fresh_array_is_exact(self, result):
        fresh = result.records[0]
        assert fresh.distance_rmse == 0.0
        assert fresh.exact_fraction == 1.0

    def test_fidelity_degrades_with_age(self, result):
        rmse = [r.distance_rmse for r in result.records]
        assert rmse[-1] > rmse[0]

    def test_margin_shrinks_with_age(self, result):
        margins = [r.match_margin_v for r in result.records]
        assert margins == sorted(margins, reverse=True)

    def test_compensation_rescues_old_arrays(self, result):
        """The aging-aware SL re-bias avoids the catastrophic mismatch-
        detection loss of the fixed ladder."""
        oldest = result.records[-1]
        assert oldest.distance_rmse_compensated < 0.5 * oldest.distance_rmse

    def test_lifetime_positive(self, result):
        assert result.lifetime_s > 0

    def test_formatting(self, result):
        text = format_retention(result)
        assert "lifetime" in text


class TestEnduranceStudy:
    def test_ladder_fits_until_fatigue(self):
        records = run_endurance_study(cycles=(1e2, 1e8))
        assert records[0].ladder_fits
        assert not records[1].ladder_fits

    def test_formatting(self):
        text = format_endurance(run_endurance_study(cycles=(1e2,)))
        assert "cycles" in text


class TestCLI:
    def test_registry_covers_report_order(self):
        assert set(REPORT_ORDER) == set(EXPERIMENTS)

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REPORT_ORDER:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "This work" in out

    def test_run_area(self, capsys):
        assert main(["run", "area"]) == 0
        assert "bit-density advantage" in capsys.readouterr().out

    def test_run_fig6_fast(self, capsys):
        assert main(["run", "fig6", "--fast"]) == 0
        assert "yield" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig6"], ["report"], ["resilience"]],
        ids=["run", "report", "resilience"],
    )
    def test_workers_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestBatchStudy:
    def test_crossover_structure(self):
        from repro.experiments.ext_batch import (
            format_batch_study,
            run_batch_study,
        )

        study = run_batch_study(batches=(1, 1_000, 100_000),
                                bank_counts=(1, 8))
        by_key = {(r.batch, r.n_banks): r for r in study.records}
        assert by_key[(1, 1)].tdam_wins
        assert not by_key[(100_000, 1)].tdam_wins
        assert study.crossover_batch(8) is None
        assert "winner" in format_batch_study(study)


class TestTemperatureDriver:
    def test_replica_beats_fixed(self):
        from repro.experiments.ext_temperature import (
            format_temperature,
            run_temperature_study,
        )

        records = run_temperature_study(temperatures_k=(298.0, 398.0))
        room, hot = records
        assert room.fixed_exact_fraction == 1.0
        assert hot.replica_exact_fraction > hot.fixed_exact_fraction
        assert "replica" in format_temperature(records)


class TestOnlineDriver:
    def test_modes_ranked(self):
        from repro.datasets.synthetic import make_face_like
        from repro.experiments.ext_online import run_online_study

        records = run_online_study(
            dataset=make_face_like(200, 100), dimension=512,
        )
        by_mode = {r.feedback: r for r in records}
        assert (
            by_mode["exact"].test_accuracy
            >= by_mode["binary"].test_accuracy
        )
