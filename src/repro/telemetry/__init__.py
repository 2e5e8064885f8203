"""Telemetry: structured logging, metrics, span tracing, profiling hooks.

The observability layer of the TD-AM stack -- the software analog of the
waveform probes a hardware evaluation attaches to a test chip.  Four
zero-dependency pillars share one process-wide switch:

- :mod:`~repro.telemetry.log` -- ``get_logger(__name__)`` over stdlib
  ``logging`` with JSON-lines and human console formatters
  (``--log-level`` / ``REPRO_LOG_LEVEL``).
- :mod:`~repro.telemetry.metrics` -- thread-safe labeled
  ``Counter``/``Gauge``/``Histogram`` in a registry exportable as JSON
  or Prometheus text exposition format.
- :mod:`~repro.telemetry.trace` -- nested ``span(...)`` scopes forming
  a parent/child tree, dumpable to Chrome-trace JSON
  (``chrome://tracing`` / Perfetto).
- :mod:`~repro.telemetry.profile` -- an opt-in probe-hook registry at
  fixed instrumentation points (mismatch stats, TDC sense margins,
  cache events, repair actions, Monte Carlo shard timings).

Telemetry is **off by default** and the disabled fast path is a single
boolean check (a microbench holds ``search_batch`` overhead under 3%).
Turn it on with :func:`enable` (or ``REPRO_TELEMETRY=1``), or let the
CLI do it via ``--trace-out`` / ``--metrics-out``::

    from repro import telemetry

    telemetry.enable()
    ...  # run searches
    telemetry.get_tracer().dump_chrome_trace("trace.json")
    telemetry.get_registry().dump_json("metrics.json")

See ``docs/OBSERVABILITY.md`` for the probe-point catalog and how to
read a trace.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    # switch
    "enable": "state",
    "disable": "state",
    "is_enabled": "state",
    "enabled_scope": "state",
    "set_tracing": "state",
    "tracing_scope": "state",
    "reset": "state",
    # logging
    "get_logger": "log",
    "configure_logging": "log",
    "reset_logging": "log",
    "parse_level": "log",
    "JsonLinesFormatter": "log",
    "ConsoleFormatter": "log",
    "RequestContextFilter": "log",
    # metrics
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "Quantile": "metrics",
    "QuantileSketch": "sketch",
    "DEFAULT_BUCKETS": "metrics",
    "LATENCY_BUCKETS_S": "metrics",
    "get_registry": "metrics",
    # request contexts
    "RequestContext": "request",
    "current_request": "request",
    "request_scope": "request",
    "new_request_id": "request",
    "reset_request_ids": "request",
    # tracing
    "Tracer": "trace",
    "Span": "trace",
    "span": "trace",
    "traced": "trace",
    "get_tracer": "trace",
    "dump_chrome_trace": "trace",
    # SLOs
    "SLOSpec": "slo",
    "MetricTerm": "slo",
    "SLOEngine": "slo",
    "SLOReport": "slo",
    "SLOVerdict": "slo",
    "WindowVerdict": "slo",
    "default_serving_slos": "slo",
    "format_slo_report": "slo",
    # flight recorder
    "FlightRecorder": "flight",
    "FlightRecord": "flight",
    # profiling hooks
    "PROBE_EVENTS": "profile",
    "register_probe": "profile",
    "unregister_probe": "profile",
    "emit_probe": "profile",
    "declare_probe_event": "profile",
    "clear_probes": "profile",
    "ProbeRecorder": "profile",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
