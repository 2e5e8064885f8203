"""Probe hooks: catalog enforcement, opt-in dispatch, failure containment."""

import pytest

from repro.telemetry.profile import (
    PROBE_EVENTS,
    ProbeRecorder,
    active_probe_events,
    clear_probes,
    declare_probe_event,
    emit_probe,
    probe_active,
    register_probe,
    unregister_probe,
)


class TestCatalog:
    def test_known_probe_points_exist(self):
        for event in (
            "array.search_batch",
            "tdc.decode",
            "cache.threshold",
            "resilience.bist",
            "resilience.repair",
            "resilience.refresh",
            "mc.run",
            "experiment.run",
        ):
            assert event in PROBE_EVENTS
        # A single search is a batch of one and has no probe of its own.
        assert "array.search" not in PROBE_EVENTS

    def test_register_unknown_event_raises(self):
        with pytest.raises(ValueError, match="unknown probe event"):
            register_probe("array.serach", lambda e, **p: None)  # typo

    def test_emit_unknown_event_raises(self):
        with pytest.raises(ValueError, match="unknown probe event"):
            emit_probe("no.such.event", x=1)

    def test_declare_extends_catalog(self):
        declare_probe_event("myext.tick", "test-only event")
        try:
            rec = ProbeRecorder()
            register_probe("myext.tick", rec)
            emit_probe("myext.tick", n=1)
            assert rec.payloads("myext.tick") == [{"n": 1}]
        finally:
            PROBE_EVENTS.pop("myext.tick", None)

    def test_declare_conflicting_text_raises(self):
        declare_probe_event("myext.tock", "one description")
        try:
            declare_probe_event("myext.tock", "one description")  # idempotent
            with pytest.raises(ValueError, match="already declared"):
                declare_probe_event("myext.tock", "different description")
        finally:
            PROBE_EVENTS.pop("myext.tock", None)


class TestDispatch:
    def test_emit_without_hooks_is_a_noop(self):
        emit_probe("array.search_batch", rows=1)  # must not raise

    def test_probe_active_follows_registration(self):
        assert probe_active("mc.run") is False
        rec = ProbeRecorder()
        register_probe("mc.run", rec)
        assert probe_active("mc.run") is True
        unregister_probe("mc.run", rec)
        assert probe_active("mc.run") is False
        with pytest.raises(ValueError, match="unknown probe event"):
            probe_active("no.such.event")

    def test_hooks_called_in_registration_order(self):
        order = []
        register_probe("mc.run", lambda e, **p: order.append("a"))
        register_probe("mc.run", lambda e, **p: order.append("b"))
        emit_probe("mc.run", n_runs=1, elapsed_s=0.0)
        assert order == ["a", "b"]

    def test_unregister_detaches_one_hook(self):
        rec = ProbeRecorder()
        register_probe("mc.run", rec)
        unregister_probe("mc.run", rec)
        emit_probe("mc.run", n_runs=1, elapsed_s=0.0)
        assert rec.records == []
        assert "mc.run" not in active_probe_events()

    def test_clear_probes_detaches_everything(self):
        register_probe("mc.run", ProbeRecorder())
        register_probe("tdc.decode", ProbeRecorder())
        clear_probes()
        assert active_probe_events() == ()

    def test_raising_hook_is_contained(self):
        rec = ProbeRecorder()

        def bad(event, **payload):
            raise RuntimeError("hook bug")

        register_probe("tdc.decode", bad)
        register_probe("tdc.decode", rec)
        emit_probe("tdc.decode", n=1, min_margin_lsb=0.4, mean_margin_lsb=0.5)
        # The search was not broken and later hooks still ran.
        assert rec.events() == ["tdc.decode"]


class TestProbeRecorder:
    def test_records_events_and_payloads(self):
        rec = ProbeRecorder()
        rec("a.b", x=1)
        rec("c.d", y=2)
        rec("a.b", x=3)
        assert rec.events() == ["a.b", "c.d", "a.b"]
        assert rec.payloads("a.b") == [{"x": 1}, {"x": 3}]
        rec.clear()
        assert rec.records == []
