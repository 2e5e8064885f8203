"""Unit tests of the perf-regression gate in tools/bench_report.py.

The gate checks a freshly measured report metric-by-metric against
fixed bounds and exactness flags; these tests pin the pass / fail
semantics of every gate kind without running the benchmarks
themselves.
"""

import sys
from pathlib import Path


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
            "tile_peak_ratio": 6.9,
            "tile_bit_exact": True,
        },
        "topk": {"speedup": 3.6, "exact": True},
        "resilient": {"speedup": 25.9, "bit_exact": True},
        "monte_carlo": {"speedup": 5.5, "bit_identical": True},
        "ann": {
            "speedup": 27.0,
            "recall_at_10": 0.85,
            "exact_full_probe": True,
            "reopen_identical": True,
        },
        "encode": {"speedup": 1.5},
        "mvm": {"bit_exact": True},
        "hdc_query": {"speedup": 4.8, "bit_exact": True},
        "cluster_init": {"speedup": 25.0, "exact": True},
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

    def test_untiled_count_kernel_fails(self):
        # kernels.tile_peak_ratio divides the one-fold XOR call's
        # tracemalloc transient by the tiled call's: 6.93 at scan-topk's
        # geometry, 1.0 when every query's words are built at once.
        cases = ((1.0, "fail"), (5.4, "fail"), (6.93, "pass"))
        for ratio, status in cases:
            report = make_report(**{"kernels.tile_peak_ratio": ratio})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["kernels.tile_peak_ratio"]["status"] == status, ratio
            assert rows["kernels.tile_peak_ratio"]["threshold"] == 5.5
        report = make_report(**{"kernels.tile_bit_exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["kernels.tile_bit_exact"]["status"] == "fail"

    def test_topk_slower_than_a_full_search_fails(self):
        # 0.14: slower than a full search.  2.5: ranking transposed
        # (M, Q) counts after the whole batch, which read 2.0-2.5 at the
        # scan geometry; per-chunk keys read 3.5-4.2.
        for speedup, status in ((0.14, "fail"), (2.5, "fail"), (3.7, "pass")):
            report = make_report(**{"topk.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["topk.speedup"]["status"] == status, speedup
            assert rows["topk.speedup"]["threshold"] == 3.0

    def test_resilient_batch_at_the_dense_tensor_speed_fails(self):
        # A (Q, M, N) fault tensor per batch read ~2x the scalar loop.
        report = make_report(**{"resilient.speedup": 2.1})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["resilient.speedup"]["status"] == "fail"
        assert rows["resilient.speedup"]["threshold"] == 8.1
        report = make_report(**{"resilient.bit_exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["resilient.bit_exact"]["status"] == "fail"

    def test_resilient_batch_reverted_to_the_query_loop_fails(self):
        # resilient.speedup is the median loop/batch ratio of alternating
        # rounds: a batch that loops the queries reads ~1; the batch
        # read 10.1-26.9.
        cases = ((1.0, "fail"), (8.0, "fail"), (10.1, "pass"))
        for speedup, status in cases:
            report = make_report(**{"resilient.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["resilient.speedup"]["status"] == status, speedup

    def test_ann_probe_no_faster_than_its_full_probe_fails(self):
        # ann.speedup is the index's full probe over its routed probe.
        # A router that probes every cluster reads ~1; at 200k rows the
        # routed probe read 17.2-28.9x faster (16.3-22.7x before the
        # one-count-per-tile probe).
        for speedup, status in ((1.0, "fail"), (13.0, "fail"), (17.2, "pass")):
            report = make_report(**{"ann.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["ann.speedup"]["status"] == status, speedup
            assert rows["ann.speedup"]["threshold"] == 13.5

    def test_ann_recall_is_gated_on_the_noisy_corpus(self):
        # The noise-0.35 corpus reads recall@10 0.852 at nprobe=8 of 256
        # clusters (200k rows); the old noise-0.08 corpus read 1.0 at
        # every nprobe, so its 0.95 floor could not fail.
        cases = ((0.70, "fail"), (0.79, "fail"), (0.852, "pass"))
        for recall, status in cases:
            report = make_report(**{"ann.recall_at_10": recall})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["ann.recall_at_10"]["status"] == status, recall
            assert rows["ann.recall_at_10"]["threshold"] == 0.80

    def test_query_quantizer_at_the_digitize_speed_fails(self):
        # np.digitize timed against itself reads ~1.0; the comparison
        # count read 4.2-5.1 at the hdc-refresh geometry.
        cases = ((1.0, "fail"), (2.9, "fail"), (4.2, "pass"))
        for speedup, status in cases:
            report = make_report(**{"hdc_query.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["hdc_query.speedup"]["status"] == status, speedup
            assert rows["hdc_query.speedup"]["threshold"] == 3.0
        report = make_report(**{"hdc_query.bit_exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["hdc_query.bit_exact"]["status"] == "fail"

    def test_init_at_the_rescoring_speed_fails(self):
        # An init that re-scores every chosen centroid read 1.1-1.3;
        # the running maximum read 23.6-46.0.  A running maximum that
        # drops or misorders a key picks other centroids.
        cases = ((1.0, "fail"), (18.0, "fail"), (23.6, "pass"))
        for speedup, status in cases:
            report = make_report(**{"cluster_init.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["cluster_init.speedup"]["status"] == status, speedup
            assert rows["cluster_init.speedup"]["threshold"] == 18.8
        report = make_report(**{"cluster_init.exact": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["cluster_init.exact"]["status"] == "fail"

    def test_monte_carlo_at_the_trial_loop_speed_fails(self):
        # monte_carlo.speedup times the Fig. 6 trial loop against the
        # rows of one array, interleaved: a Fig. 6 reverted to the loop
        # reads ~1.0; the rows read 5.13-6.06.
        cases = ((1.0, "fail"), (4.0, "fail"), (5.13, "pass"))
        for speedup, status in cases:
            report = make_report(**{"monte_carlo.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["monte_carlo.speedup"]["status"] == status, speedup
            assert rows["monte_carlo.speedup"]["threshold"] == 4.1
        report = make_report(**{"monte_carlo.bit_identical": False})
        rows = rows_by_metric(
            bench_report.compare_to_baseline(report, make_report())
        )
        assert rows["monte_carlo.bit_identical"]["status"] == "fail"

    def test_encode_slower_than_its_rewrite_gain_fails(self):
        # encode.speedup times the rewrite against the direct rule it
        # replaced, interleaved: losing the rewrite reads ~1.0, a
        # float64 promotion of the encode reads below 1, and a 30%
        # slower encode ~1.04; the rewrite read 1.35-2.81.
        cases = (
            (0.3, "fail"), (1.0, "fail"), (1.04, "fail"), (1.35, "pass"),
        )
        for speedup, status in cases:
            report = make_report(**{"encode.speedup": speedup})
            rows = rows_by_metric(
                bench_report.compare_to_baseline(report, make_report())
            )
            assert rows["encode.speedup"]["status"] == status, speedup
            assert rows["encode.speedup"]["threshold"] == 1.08

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
