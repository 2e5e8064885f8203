"""CLI telemetry wiring: --log-level, --trace-out, --metrics-out."""

import json

from repro.cli import main


class TestCliArtifacts:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "run", "table1",
            "--log-level", "debug",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "This work" in out  # the Table I body reached stdout

        trace = json.loads(trace_path.read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "experiment.table1" in names
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in spans)

        metrics = json.loads(metrics_path.read_text())
        assert isinstance(metrics, dict) and metrics  # registry dumped

    def test_trace_out_captures_nested_search_spans(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main([
            "run", "retention", "--fast",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        # The retention study drives real array searches, one batch per
        # measurement, so the trace holds the experiment span plus
        # nested search/sense spans.
        assert "experiment.retention" in names
        assert "array.search_batch" in names
        assert "array.sense" in names

    def test_run_without_flags_stays_dark(self, tmp_path, capsys):
        from repro import telemetry

        code = main(["run", "table1"])
        assert code == 0
        assert telemetry.get_tracer().roots() == ()
        assert not telemetry.is_enabled()
