"""Open-loop load generator: determinism, accounting, honesty SLO."""

import json
import math

import pytest

from repro.service import (
    FakeClock,
    LoadConfig,
    LoadReport,
    format_load_report,
    run_load,
)


def _quick(**overrides):
    base = dict(
        duration_s=0.05,
        rate_per_s=1200.0,
        deadline_s=0.040,
        n_tenants=2,
        n_rows=8,
        pool_size=8,
        seed=5,
    )
    base.update(overrides)
    return LoadConfig(**base)


class TestLoadConfig:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("duration_s", 0.0, "duration_s"),
            ("rate_per_s", -1.0, "rate_per_s"),
            ("deadline_s", 0.0, "deadline_s"),
            ("n_tenants", 0, "n_tenants"),
            ("kind", "scan", "kind"),
        ],
    )
    def test_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _quick(**{field: value})

    def test_service_injection_requires_clock(self):
        with pytest.raises(ValueError, match="clock"):
            run_load(_quick(), service=object())


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = run_load(_quick())
        second = run_load(_quick())
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_arrivals(self):
        first = run_load(_quick(seed=5))
        second = run_load(_quick(seed=6))
        # Poisson arrivals differ, so at minimum the latency profile
        # cannot be bit-identical.
        assert first.to_dict() != second.to_dict()


class TestAccounting:
    def test_offered_splits_exactly(self):
        report = run_load(_quick())
        assert report.offered == report.admitted + report.sheds
        assert report.admitted == (
            report.goodput
            + report.deadline_misses
            + report.unavailable
            + report.errors
        )

    def test_tenant_slices_sum_to_totals(self):
        report = run_load(_quick(n_tenants=3))
        assert sum(t.offered for t in report.tenants.values()) == (
            report.offered
        )
        assert sum(t.answered for t in report.tenants.values()) == (
            report.goodput
        )

    def test_uncontended_run_sheds_nothing(self):
        report = run_load(
            _quick(rate_per_s=200.0, max_queue_depth=128)
        )
        assert report.sheds == 0
        assert report.goodput == report.offered
        assert report.honest
        assert report.p99_s <= report.config.deadline_s

    def test_overload_sheds_but_stays_honest(self):
        report = run_load(
            _quick(rate_per_s=30000.0, max_queue_depth=16)
        )
        assert report.sheds > 0
        assert report.shed_rate > 0.2
        assert report.goodput > 0
        assert report.honest
        # Every shed is typed -- nothing vanishes into a queue.
        assert report.sheds == (
            report.shed_quota
            + report.shed_queue_full
            + report.shed_queue_deadline
        )

    def test_quota_confines_the_stampeder(self):
        report = run_load(
            _quick(
                n_tenants=2,
                tenant_weights=(0.9, 0.1),
                quota_overrides={"t0": (300.0, 8.0)},
                rate_per_s=3000.0,
            )
        )
        t0, t1 = report.tenants["t0"], report.tenants["t1"]
        assert t0.shed_quota > 0
        assert t1.shed_quota == 0
        assert t1.answered == t1.offered
        assert report.honest

    def test_topk_kind_runs_and_verifies(self):
        report = run_load(_quick(kind="topk", k=3))
        assert report.goodput > 0
        assert report.honest

    def test_coalescing_actually_batches(self):
        report = run_load(_quick(rate_per_s=4000.0, max_batch=16))
        assert report.batches < report.admitted
        assert report.mean_batch_size > 1.0


class TestReporting:
    def test_to_json_roundtrips(self):
        report = run_load(_quick())
        payload = json.loads(report.to_json())
        assert payload["offered"] == report.offered
        assert payload["honesty"]["honest"] is True
        assert payload["config"]["seed"] == 5

    def test_format_is_human_readable(self):
        report = run_load(_quick(n_tenants=2))
        text = format_load_report(report)
        assert "offered" in text
        assert "p99" in text
        assert "t0" in text and "t1" in text

    def test_external_service_and_clock(self):
        # run_load accepts a pre-built service so chaos scenarios can
        # inject faults; the clock must be the same FakeClock.
        from repro.service.stack import build_shards
        from repro.core.config import TDAMConfig
        from repro.service import TDAMSearchService

        clock = FakeClock()
        config = _quick()
        shards = build_shards(
            TDAMConfig(n_stages=config.n_stages),
            n_rows=config.n_rows,
            n_shards=2,
            n_spares=2,
        )
        service = TDAMSearchService(
            shards,
            clock=clock.now,
            sleep=clock.sleep,
            default_deadline_s=1.0,
        )
        report = run_load(config, service=service, clock=clock)
        assert isinstance(report, LoadReport)
        assert report.goodput > 0

    def test_shed_rate_handles_zero_offered(self):
        # Degenerate but reachable with a tiny duration: no arrivals.
        report = run_load(_quick(duration_s=1e-6, rate_per_s=0.001))
        assert report.offered == 0
        assert report.shed_rate == 0.0
        assert math.isnan(report.p50_s) or report.p50_s == 0.0
