"""Tests of the Monte Carlo harness."""

import numpy as np
import pytest

from repro import telemetry
from repro.spice.montecarlo import (
    MonteCarloResult,
    run_monte_carlo,
    trial_generators,
)


class TestRunMonteCarlo:
    def test_reproducible_with_seed(self):
        trial = lambda rng: float(rng.normal())
        a = run_monte_carlo(trial, n_runs=50, seed=9)
        b = run_monte_carlo(trial, n_runs=50, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_streams_are_independent(self):
        trial = lambda rng: float(rng.normal())
        result = run_monte_carlo(trial, n_runs=200, seed=9)
        assert len(set(result.samples)) == 200

    def test_statistics(self):
        trial = lambda rng: float(rng.normal(5.0, 2.0))
        result = run_monte_carlo(trial, n_runs=4000, seed=1)
        assert result.mean == pytest.approx(5.0, abs=0.15)
        assert result.std == pytest.approx(2.0, rel=0.1)
        assert result.coefficient_of_variation == pytest.approx(0.4, rel=0.12)

    def test_failures_propagate_by_default(self):
        def flaky(rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_monte_carlo(flaky, n_runs=3, seed=1)

    def test_allow_failures_counts_them(self):
        def flaky(rng):
            if rng.random() < 0.5:
                raise RuntimeError("boom")
            return 1.0

        result = run_monte_carlo(flaky, n_runs=100, seed=2, allow_failures=True)
        assert result.failures > 0
        assert len(result.samples) + result.failures == 100

    def test_all_failures_is_an_error(self):
        def always_fails(rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="all Monte Carlo trials"):
            run_monte_carlo(always_fails, n_runs=3, seed=1, allow_failures=True)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="n_runs"):
            run_monte_carlo(lambda rng: 0.0, n_runs=0)

    def test_samples_follow_trial_generators(self):
        trial = lambda rng: float(rng.normal())
        expected = [trial(rng) for rng in trial_generators(4, 6)]
        result = run_monte_carlo(trial, n_runs=6, seed=4)
        assert result.samples.tolist() == expected

    def test_trial_streams_do_not_depend_on_the_run_count(self):
        trial = lambda rng: float(rng.normal())
        short = run_monte_carlo(trial, n_runs=5, seed=4)
        long = run_monte_carlo(trial, n_runs=50, seed=4)
        assert np.array_equal(short.samples, long.samples[:5])


class TestRunProbe:
    def test_run_probe_reports_trials_and_time(self):
        telemetry.reset()
        telemetry.enable()
        rec = telemetry.ProbeRecorder()
        telemetry.register_probe("mc.run", rec)
        try:
            run_monte_carlo(lambda rng: 0.0, n_runs=12, seed=1)
            [payload] = rec.payloads("mc.run")
            assert set(payload) == {"n_runs", "elapsed_s"}
            assert payload["n_runs"] == 12
        finally:
            telemetry.reset()


class TestMonteCarloResult:
    def setup_method(self):
        self.result = MonteCarloResult(
            samples=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), seed=0
        )

    def test_fraction_within(self):
        assert self.result.fraction_within(2.0, 4.0) == pytest.approx(0.6)

    def test_percentile(self):
        assert self.result.percentile(50) == 3.0

    def test_histogram(self):
        hist = self.result.histogram(bins=5)
        assert hist["counts"].sum() == 5
        assert len(hist["edges"]) == 6

    def test_summary_keys(self):
        summary = self.result.summary()
        for key in ("n", "mean", "std", "min", "max", "p01", "p99"):
            assert key in summary

    def test_cv_zero_mean_raises(self):
        result = MonteCarloResult(samples=np.array([-1.0, 1.0]), seed=0)
        with pytest.raises(ValueError, match="zero mean"):
            result.coefficient_of_variation
