"""Closed-loop resilience: the TD-AM that detects, repairs, and refreshes.

The fault, variation, and drift models elsewhere in the package are
*passive* -- they measure how much damage an effect does.  This
subsystem closes the loop so the array survives the damage in service:

- :mod:`~repro.resilience.bist` -- a march-style built-in self-test that
  diagnoses per-cell faults purely from decoded distances.
- :mod:`~repro.resilience.repair` -- turns a diagnosis into spare-row
  remapping, array-wide stage masking, and (last resort) row
  retirement, plus the binomial yield model for spare provisioning.
- :mod:`~repro.resilience.refresh` -- schedules rewrites before
  retention drift eats the half-LSB sensing margin, budgeted against
  endurance fatigue.
- :mod:`~repro.resilience.resilient` --
  :class:`~repro.resilience.resilient.ResilientTDAMArray`, the
  self-healing wrapper that runs the whole loop and serves searches
  with explicit health/confidence metadata and a degraded-mode flag.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MarchBIST": "bist",
    "DiagnosisReport": "bist",
    "RowDiagnosis": "bist",
    "CellDiagnosis": "bist",
    "CellFaultKind": "bist",
    "default_backgrounds": "bist",
    "RepairEngine": "repair",
    "RepairPlan": "repair",
    "row_failure_probability": "repair",
    "repair_yield": "repair",
    "spares_for_yield": "repair",
    "RefreshScheduler": "refresh",
    "RefreshPlan": "refresh",
    "ResilientTDAMArray": "resilient",
    "ResilientSearchResult": "resilient",
    "ResilientBatchSearchResult": "resilient",
    "TopKResult": "resilient",
    "HealthReport": "resilient",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
