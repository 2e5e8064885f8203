"""Telemetry must observe, never perturb: results are bit-identical with
the switch on or off, and instrumentation actually records when on."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.resilience.resilient import ResilientTDAMArray
from repro.spice.montecarlo import run_monte_carlo


@pytest.fixture
def config():
    return TDAMConfig(n_stages=16)


@pytest.fixture
def workload(config):
    rng = np.random.default_rng(9)
    stored = rng.integers(0, config.levels, size=(6, config.n_stages))
    queries = rng.integers(0, config.levels, size=(5, config.n_stages))
    return stored, queries


def _trial(rng):
    return float(rng.normal(3.0, 0.5))


class TestBitIdentity:
    def test_search_identical_on_off(self, config, workload):
        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        off = [array.search(q) for q in queries]
        telemetry.enable()
        on = [array.search(q) for q in queries]
        for a, b in zip(off, on):
            assert np.array_equal(a.hamming_distances, b.hamming_distances)
            assert np.array_equal(a.delays_s, b.delays_s)
            assert a.best_row == b.best_row
            assert a.latency_s == b.latency_s
            assert a.energy_j == b.energy_j

    def test_search_batch_identical_on_off(self, config, workload):
        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        off = array.search_batch(queries)
        telemetry.enable()
        on = array.search_batch(queries)
        assert np.array_equal(off.hamming_distances, on.hamming_distances)
        assert np.array_equal(off.delays_s, on.delays_s)
        assert np.array_equal(off.best_rows, on.best_rows)
        assert np.array_equal(off.latencies_s, on.latencies_s)
        assert np.array_equal(off.energies_j, on.energies_j)

    def test_resilient_search_identical_on_off(self, config, workload):
        stored, queries = workload

        def build():
            array = ResilientTDAMArray(
                config, n_rows=len(stored), n_spares=1
            )
            array.write_all(stored)
            return array

        off = build().search_batch(queries)
        telemetry.enable()
        on = build().search_batch(queries)
        assert np.array_equal(off.hamming_distances, on.hamming_distances)
        assert np.array_equal(off.best_rows, on.best_rows)

    def test_resilient_closed_loop_identical_on_off(self, config, workload):
        stored, _ = workload

        def loop():
            array = ResilientTDAMArray(
                config, n_rows=len(stored), n_spares=1
            )
            array.write_all(stored)
            diagnosis = array.run_bist()
            plan = array.apply_repairs(diagnosis)
            array.refresh()
            return diagnosis, plan

        d_off, p_off = loop()
        telemetry.enable()
        d_on, p_on = loop()
        assert d_off.dead_rows == d_on.dead_rows
        assert d_off.faulty_cells == d_on.faulty_cells
        assert p_off.masked_stages == p_on.masked_stages
        assert p_off.retired_rows == p_on.retired_rows

    def test_monte_carlo_identical_on_off(self):
        off = run_monte_carlo(_trial, n_runs=16, seed=3)
        telemetry.enable()
        on = run_monte_carlo(_trial, n_runs=16, seed=3)
        assert np.array_equal(off.samples, on.samples)


class TestInstrumentationRecords:
    def test_search_emits_span_metric_and_probe(self, config, workload):
        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        telemetry.enable()
        rec = telemetry.ProbeRecorder()
        telemetry.register_probe("array.search_batch", rec)
        telemetry.register_probe("tdc.decode", rec)
        array.search_batch(queries)
        roots = telemetry.get_tracer().roots()
        batch_spans = [s for s in roots if s.name == "array.search_batch"]
        assert batch_spans, [s.name for s in roots]
        nested = [c.name for c in batch_spans[-1].children]
        assert "array.sense" in nested
        counter = telemetry.get_registry().get("tdam_queries_total")
        assert counter.value(mode="batch") == len(queries)
        payload = rec.payloads("array.search_batch")[-1]
        assert payload["queries"] == len(queries)
        assert payload["rows"] == len(stored)
        # The TDC decode probe saw a margin in (0, 0.5].
        margins = rec.payloads("tdc.decode")
        assert margins and 0 <= margins[-1]["min_margin_lsb"] <= 0.5

    def test_search_probe_payloads(self, config, workload):
        # A single search is a batch of one: it emits the batch probe
        # with one query, and no probe of its own.
        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        telemetry.enable()
        rec = telemetry.ProbeRecorder()
        telemetry.register_probe("array.search_batch", rec)
        single = array.search(queries[0])
        batch = array.search_batch(queries)
        assert rec.events() == ["array.search_batch", "array.search_batch"]
        assert rec.payloads("array.search_batch") == [
            {
                "rows": len(stored),
                "stages": config.n_stages,
                "queries": 1,
                "min_mismatches": int(single.hamming_distances.min()),
                "max_mismatches": int(single.hamming_distances.max()),
                "latency_s": float(single.latency_s),
                "energy_j": float(single.energy_j),
            },
            {
                "rows": len(stored),
                "stages": config.n_stages,
                "queries": len(queries),
                "min_mismatches": int(batch.hamming_distances.min()),
                "max_mismatches": int(batch.hamming_distances.max()),
                "latency_s": float(batch.latencies_s.max()),
                "energy_j": float(batch.energies_j.sum()),
            },
        ]
        counter = telemetry.get_registry().get("tdam_searches_total")
        assert counter.value(mode="batch") == 2
        assert counter.value(mode="single") == 0

    def test_search_payloads_are_built_only_for_a_hook(self, config, workload):
        # The payload's min/max scan every distance; with no hook
        # attached they are never computed.
        from types import SimpleNamespace

        from repro.core.array import _record_search_telemetry

        class Unscanned(np.ndarray):
            def min(self, *args, **kwargs):
                raise AssertionError("distances scanned")

            max = min

        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        # A batch of queries and a batch of one, as a single search
        # records it.
        results = [
            SimpleNamespace(
                hamming_distances=batch.hamming_distances.view(Unscanned),
                latencies_s=batch.latencies_s,
                energies_j=batch.energies_j,
            )
            for batch in (
                array.search_batch(queries), array.search_batch(queries[:1])
            )
        ]
        telemetry.enable()
        for result in results:
            _record_search_telemetry(array, result)
        searches = telemetry.get_registry().get("tdam_searches_total")
        served = telemetry.get_registry().get("tdam_queries_total")
        assert searches.value(mode="batch") == 2
        assert served.value(mode="batch") == len(queries) + 1
        assert searches.value(mode="single") == 0
        telemetry.register_probe("array.search_batch", telemetry.ProbeRecorder())
        for result in results:
            with pytest.raises(AssertionError, match="scanned"):
                _record_search_telemetry(array, result)

    def test_resilient_loop_emits_health_telemetry(self, config, workload):
        stored, _ = workload
        telemetry.enable()
        rec = telemetry.ProbeRecorder()
        for event in (
            "resilience.bist", "resilience.repair", "resilience.refresh"
        ):
            telemetry.register_probe(event, rec)
        array = ResilientTDAMArray(config, n_rows=len(stored), n_spares=1)
        array.write_all(stored)
        array.self_test_and_repair()
        array.refresh()
        events = rec.events()
        assert "resilience.bist" in events
        assert "resilience.repair" in events
        assert "resilience.refresh" in events
        registry = telemetry.get_registry()
        assert registry.get("tdam_bist_runs_total").value() >= 1
        assert registry.get("tdam_refreshes_total").value() >= 1

    def test_disabled_records_nothing(self, config, workload):
        stored, queries = workload
        array = FastTDAMArray(config, n_rows=len(stored))
        array.write_all(stored)
        array.search_batch(queries)
        assert telemetry.get_tracer().roots() == ()
        counter = telemetry.get_registry().get("tdam_queries_total")
        assert counter.value(mode="batch") == 0
