"""Unit tests of the perf-regression gate in tools/bench_report.py.

The gate compares a freshly measured report against the committed
``BENCH_search.json`` baseline metric-by-metric; these tests pin the
pass / fail / skipped semantics of every gate kind without running the
benchmarks themselves.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_report  # noqa: E402


def make_report(**overrides):
    """A minimal report satisfying every tracked gate."""
    report = {
        "search_batch": {"speedup": 30.0, "bit_exact": True},
        "kernels": {
            "packed_speedup_vs_loop": 44.0,
            "bit_exact": True,
        },
        "topk": {"speedup": 1.7, "exact": True},
        "resilient": {"speedup": 21.0, "bit_exact": True},
        "monte_carlo": {"speedup": 1.0, "bit_identical": True},
        "ann": {
            "speedup": 40.0,
            "recall_at_10": 1.0,
            "exact_full_probe": True,
            "reopen_identical": True,
        },
        "encode": {"speedup_vs_committed": 5.2, "encode_s": 1.5e-3},
        "mvm": {"bit_exact": True},
    }
    for path, value in overrides.items():
        section, key = path.split(".")
        report[section][key] = value
    return report


def rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


class TestLookup:
    def test_dotted_path(self):
        report = make_report()
        assert bench_report._lookup(report, "kernels.bit_exact") is True
        assert bench_report._lookup(report, "kernels.missing") is None
        assert bench_report._lookup(report, "nothing.at_all") is None


class TestCompareToBaseline:
    def test_all_pass_against_equal_baseline(self):
        report = make_report()
        rows = bench_report.compare_to_baseline(report, make_report())
        assert len(rows) == len(bench_report.TRACKED_GATES)
        assert all(row["status"] == "pass" for row in rows)

    def test_abs_min_fails_below_threshold(self):
        report = make_report(**{"kernels.packed_speedup_vs_loop": 9.5})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        row = rows["kernels.packed_speedup_vs_loop"]
        assert row["status"] == "fail"
        assert row["threshold"] == 10.0

    def test_count_kernel_at_the_loop_speed_fails(self):
        # A count kernel that degrades to per-query work reads ~1x.
        report = make_report(**{"kernels.packed_speedup_vs_loop": 1.1})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["kernels.packed_speedup_vs_loop"]["status"] == "fail"
        passing = make_report(**{"kernels.packed_speedup_vs_loop": 42.0})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(passing, make_report())
        )
        assert rows["kernels.packed_speedup_vs_loop"]["status"] == "pass"

    def test_topk_slower_than_a_full_search_fails(self):
        report = make_report(**{"topk.speedup": 0.14})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["topk.speedup"]["status"] == "fail"
        assert rows["topk.speedup"]["threshold"] == 1.0

    def test_resilient_batch_at_the_dense_tensor_speed_fails(self):
        # A (Q, M, N) fault tensor per batch read ~2x the scalar loop.
        report = make_report(**{"resilient.speedup": 2.1})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["resilient.speedup"]["status"] == "fail"
        assert rows["resilient.speedup"]["threshold"] == 10.0
        report = make_report(**{"resilient.bit_exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["resilient.bit_exact"]["status"] == "fail"

    def test_rel_min_tracks_the_baseline(self):
        baseline = make_report(**{"monte_carlo.speedup": 2.0})
        passing = make_report(**{"monte_carlo.speedup": 1.6})
        failing = make_report(**{"monte_carlo.speedup": 1.4})
        ok = rows_by_metric(
            bench_report.compare_to_baseline(passing, baseline)
        )["monte_carlo.speedup"]
        bad = rows_by_metric(
            bench_report.compare_to_baseline(failing, baseline)
        )["monte_carlo.speedup"]
        assert ok["status"] == "pass"
        assert bad["status"] == "fail"

    def test_rel_max_caps_growth_over_the_baseline(self):
        # encode.encode_s is a timing: 1.5x the baseline is the ceiling.
        baseline = make_report(**{"encode.encode_s": 1.0e-3})
        passing = make_report(**{"encode.encode_s": 1.4e-3})
        failing = make_report(**{"encode.encode_s": 1.6e-3})
        ok = rows_by_metric(
            bench_report.compare_to_baseline(passing, baseline)
        )["encode.encode_s"]
        bad = rows_by_metric(
            bench_report.compare_to_baseline(failing, baseline)
        )["encode.encode_s"]
        assert ok["status"] == "pass"
        assert bad["status"] == "fail"
        assert bad["threshold"] == pytest.approx(1.5e-3)

    def test_rel_max_missing_from_baseline_is_skipped(self):
        baseline = make_report()
        del baseline["encode"]["encode_s"]
        rows = rows_by_metric(
            bench_report.compare_to_baseline(make_report(), baseline)
        )
        row = rows["encode.encode_s"]
        assert row["status"] == "skipped"
        assert "baseline" in row["reason"]

    def test_true_gate_fails_on_flipped_flag(self):
        report = make_report(**{"kernels.bit_exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["kernels.bit_exact"]["status"] == "fail"

    def test_metric_missing_from_current_report_fails(self):
        report = make_report()
        del report["topk"]
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        row = rows["topk.exact"]
        assert row["status"] == "fail"
        assert "missing from current" in row["reason"]

    def test_rel_metric_missing_from_baseline_is_skipped(self):
        # An older committed baseline predating a tracked metric must
        # not fail the build; the gate records it as skipped instead.
        baseline = make_report()
        del baseline["monte_carlo"]
        rows = rows_by_metric(
            bench_report.compare_to_baseline(make_report(), baseline)
        )
        row = rows["monte_carlo.speedup"]
        assert row["status"] == "skipped"
        assert "baseline" in row["reason"]

    def test_print_comparison_verdict(self, capsys):
        rows = bench_report.compare_to_baseline(
            make_report(), make_report()
        )
        assert bench_report._print_comparison(rows)
        assert "pass" in capsys.readouterr().out.lower()
        rows = bench_report.compare_to_baseline(
            make_report(**{"topk.exact": False}), make_report()
        )
        assert not bench_report._print_comparison(rows)


class TestCommittedBaseline:
    def test_baseline_passes_its_own_gates(self):
        # The committed BENCH_search.json must satisfy every tracked
        # gate against itself -- otherwise CI is red on arrival.
        import json

        baseline = json.loads(
            (REPO_ROOT / "BENCH_search.json").read_text()
        )
        rows = bench_report.compare_to_baseline(baseline, baseline)
        failed = [r for r in rows if r["status"] == "fail"]
        assert failed == []
