"""One driver per paper table/figure (see DESIGN.md section 4).

Every driver returns a structured result object and has a ``format_*``
companion producing the text rendering the benchmark harness prints.
Drivers accept size parameters so benches can run reduced versions while
``python -m repro.experiments.<driver>`` reproduces the full figure.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "run_fig1": "fig1_device",
    "run_resilience_study": "ext_resilience",
    "run_fig2": "fig2_cell",
    "run_fig4": "fig4_linearity",
    "run_fig5_ab": "fig5_energy_delay",
    "run_fig5_cd": "fig5_energy_delay",
    "run_fig6": "fig6_montecarlo",
    "run_fig7": "fig7_hdc_accuracy",
    "run_fig8": "fig8_gpu_comparison",
    "run_table1": "table1_comparison",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
