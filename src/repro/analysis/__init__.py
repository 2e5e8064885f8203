"""Sweep helpers, statistics, and text rendering of tables/figure series."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "grid_sweep": "sweeps",
    "SweepResult": "sweeps",
    "format_table": "reporting",
    "format_series": "reporting",
    "format_engineering": "reporting",
    "DesignPoint": "pareto",
    "evaluate_design_space": "pareto",
    "pareto_front": "pareto",
    "knee_point": "pareto",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
