"""Comparison designs: the Table I baselines and the GPU cost model.

Each baseline is implemented as a small functional model (its search /
MAC semantics) plus an energy model anchored to the energy-per-bit number
the paper's Table I quotes for it.  This lets the reproduction *generate*
Table I and also contrast capabilities in code (e.g. the CAMs' inability
to produce quantitative similarity).

- :mod:`~repro.baselines.tcam16t` -- 16T CMOS TCAM [29].
- :mod:`~repro.baselines.fecam` -- 2-FeFET TCAM (Nat. Electron.'19 [15]).
- :mod:`~repro.baselines.timaq` -- TIMAQ, CMOS time-domain IMC (JSSC'21
  [20]).
- :mod:`~repro.baselines.fefinfet` -- Fe-FinFET TD mixed-signal IMC
  (IEDM'21 [22]).
- :mod:`~repro.baselines.td_cim` -- 3T-2FeFET TD compute-in-memory fabric
  (Work [24]).
- :mod:`~repro.baselines.gpu` -- RTX 4070-class GPU roofline/overhead
  cost model for the Fig. 8 system comparison.
- :mod:`~repro.baselines.registry` -- Table I assembly.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BaselineDesign": "base",
    "SCType": "base",
    "CMOSTCAM16T": "tcam16t",
    "FeFETTCAM": "fecam",
    "TIMAQ": "timaq",
    "FeFinFETTimeDomainIMC": "fefinfet",
    "TDCIMFabric": "td_cim",
    "GPUCostModel": "gpu",
    "GPUWorkload": "gpu",
    "TableIRow": "registry",
    "build_table_i": "registry",
    "MultiBitFeCAMCrossbar": "crossbar",
    "CosineCrossbarAM": "crossbar",
    "RRAMTimeDomainCAM": "rram_tdcam",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
