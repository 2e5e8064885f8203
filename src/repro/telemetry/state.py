"""The process-wide telemetry switch shared by every pillar.

Hot paths guard their instrumentation with a single attribute read::

    from repro.telemetry.state import STATE as _TM
    ...
    if _TM.enabled:
        <record spans / metrics / probes>

so the *disabled* cost (the default) is one boolean check -- the
microbench in ``benchmarks/test_perf_microbench.py`` asserts the wrapped
``search_batch`` stays within 3% of the bare kernel.

The switch lives on a mutable holder object (not a module-level bool) so
``from ... import STATE`` always observes the current value.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_TRUTHY = ("1", "true", "yes", "on")


class TelemetryState:
    """Mutable on/off holder; one instance (:data:`STATE`) per process.

    ``enabled`` is the master switch.  ``tracing`` sub-gates the span
    pillar only: with ``enabled=True, tracing=False`` the stack runs in
    *metrics-only* mode (counters/histograms/probes record, spans are
    no-ops).  The disabled fast path is unchanged -- hot paths still
    check ``enabled`` first, so the sub-flag costs nothing when the
    master switch is off.
    """

    __slots__ = ("enabled", "tracing")

    def __init__(self, enabled: bool = False, tracing: bool = True) -> None:
        self.enabled = enabled
        self.tracing = tracing


#: The process-wide switch.  ``REPRO_TELEMETRY=1`` enables it at import
#: time (useful for instrumenting code paths with no CLI in front).
STATE = TelemetryState(
    os.environ.get("REPRO_TELEMETRY", "").strip().lower() in _TRUTHY
)


def enable() -> None:
    """Turn telemetry on: spans, metrics, and probes start recording."""
    STATE.enabled = True


def disable() -> None:
    """Turn telemetry off (the default): hot paths skip instrumentation."""
    STATE.enabled = False
    STATE.tracing = True


def set_tracing(on: bool) -> None:
    """Sub-gate the span pillar: ``False`` puts telemetry in
    metrics-only mode (metrics and probes keep recording, ``span()``
    becomes a no-op).  Has no effect while telemetry is disabled."""
    STATE.tracing = bool(on)


@contextmanager
def tracing_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force the span sub-gate on (or off); restores on
    exit.  Combine with :func:`enabled_scope` for metrics-only runs."""
    previous = STATE.tracing
    STATE.tracing = on
    try:
        yield
    finally:
        STATE.tracing = previous


def is_enabled() -> bool:
    """Whether telemetry is currently recording."""
    return STATE.enabled


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force telemetry on (or off); restores on exit."""
    previous = STATE.enabled
    STATE.enabled = on
    try:
        yield
    finally:
        STATE.enabled = previous


def reset() -> None:
    """Return telemetry to its pristine state (tests, notebooks).

    Disables the switch (restoring the tracing sub-gate), zeroes every
    metric series, drops recorded spans, detaches every probe hook,
    restarts the request-id counter, and removes the managed log
    handler.  Module-level metric handles stay valid.
    """
    # Imported here: every other pillar imports this module.
    from repro.telemetry.log import reset_logging
    from repro.telemetry.metrics import get_registry
    from repro.telemetry.profile import clear_probes
    from repro.telemetry.request import reset_request_ids
    from repro.telemetry.trace import get_tracer

    disable()
    get_registry().reset()
    get_tracer().reset()
    clear_probes()
    reset_request_ids()
    reset_logging()
