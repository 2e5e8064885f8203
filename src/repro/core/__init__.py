"""The paper's contribution: the multi-bit time-domain associative memory.

Layered exactly as the paper presents the design:

- :mod:`~repro.core.config` -- :class:`TDAMConfig`, the single source of
  truth for bit precision, voltage ladders, load capacitor, supply and
  array geometry.
- :mod:`~repro.core.encoding` -- the value <-> V_TH / V_SL level encodings
  of Fig. 2(b)(c), including the reversed encoding of ``F_B``.
- :mod:`~repro.core.cell` -- the 2-FeFET multi-bit IMC cell (Fig. 2(a)).
- :mod:`~repro.core.stage` -- the variable-capacitance delay stage
  (Fig. 3(b)).
- :mod:`~repro.core.chain` -- the cascaded delay chain with the 2-step
  even/odd operation scheme (Fig. 3).
- :mod:`~repro.core.array` -- :class:`TDAMArray`, M chains sharing search
  lines for parallel similarity computation.
- :mod:`~repro.core.sensing` -- the counter time-to-digital converter and
  sensing-margin analysis.
- :mod:`~repro.core.energy` -- the analytic timing/energy model
  (``d_tot = 2 N d_INV + N_mis d_C``), calibratable against the transient
  backend.
- :mod:`~repro.core.netlist_builder` -- emits :mod:`repro.spice` netlists
  of cells, stages, and chains for waveform-level validation.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TDAMConfig": "config",
    "LevelEncoding": "encoding",
    "validate_levels": "encoding",
    "MultiBitIMCCell": "cell",
    "CellState": "cell",
    "DelayStage": "stage",
    "DelayChain": "chain",
    "ChainResult": "chain",
    "TDAMArray": "array",
    "FastTDAMArray": "array",
    "SearchResult": "array",
    "BatchSearchResult": "array",
    "calibrate_turn_on_overdrive": "array",
    "resolve_best_batch": "array",
    "resolve_query_chunk": "array",
    "HAVE_BITWISE_COUNT": "bitplane",
    "pack_level_planes": "bitplane",
    "pack_query_masks": "bitplane",
    "packed_mismatch_counts": "bitplane",
    "packed_pair_counts": "bitplane",
    "popcount": "bitplane",
    "MVMCost": "mvm",
    "MVMPlan": "mvm",
    "infer_operand_bits": "mvm",
    "mvm": "mvm",
    "top_k_indices": "topk",
    "grouped_top_k": "topk",
    "prune_survivors": "topk",
    "CounterTDC": "sensing",
    "SensingAnalysis": "sensing",
    "TimingEnergyModel": "energy",
    "AreaReport": "area",
    "tdam_area": "area",
    "cell_area_comparison": "area",
    "OperationScheduler": "scheduler",
    "PhaseSchedule": "scheduler",
    "TileSchedule": "scheduler",
    "ArrayController": "controller",
    "Command": "controller",
    "Event": "controller",
    "Phase": "controller",
    "Fault": "faults",
    "FaultType": "faults",
    "FaultInjector": "faults",
    "FaultyTDAMArray": "faults",
    "ProgrammingModel": "programming",
    "ProgrammingReport": "programming",
    "ReplicaCalibratedTDC": "replica",
    "ReplicaMeasurement": "replica",
    "measure_replica": "replica",
    "JitteryTDC": "noise",
    "jitter_tolerance_s": "noise",
    "droop_delay_factor": "noise",
    "max_tolerable_droop": "noise",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``mvm`` names both a submodule and its entry point.  Binding the
# function here keeps a later ``import repro.core.mvm`` from rebinding
# the package attribute to the module.
from repro.core.mvm import mvm  # noqa: E402,F401
