"""Reproduction of the DATE 2024 paper "A FeFET-based Time-Domain
Associative Memory for Multi-bit Similarity Computation".

The package is organized in layers, bottom-up:

- :mod:`repro.devices` -- behavioral device models (multi-domain Preisach
  FeFET, square-law MOSFETs, variation models).
- :mod:`repro.spice` -- a small nonlinear transient circuit simulator used
  for waveform-level validation and calibration.
- :mod:`repro.core` -- the paper's contribution: the 2-FeFET multi-bit IMC
  cell, the variable-capacitance delay stage and chain, the TD-AM array,
  sensing, and the analytic energy/latency model.
- :mod:`repro.baselines` -- energy/capability models of the comparison
  designs in Table I plus a GPU cost model.
- :mod:`repro.hdc` -- a hyperdimensional-computing classification stack
  (encoding, training, class-hypervector quantization) and the mapping of
  HDC inference onto TD-AM tiles.
- :mod:`repro.datasets` -- seeded synthetic stand-ins for the ISOLET,
  UCIHAR and FACE datasets.
- :mod:`repro.analysis` -- sweep helpers and text rendering of the paper's
  tables and figure series.
- :mod:`repro.experiments` -- one driver per paper table/figure.

Quickstart::

    from repro import TDAMArray, TDAMConfig
    import numpy as np

    config = TDAMConfig(bits=2, n_stages=32)
    array = TDAMArray(config, n_rows=4)
    array.write(0, np.array([1, 2, 3, 0] * 8))
    result = array.search(np.array([1, 2, 3, 0] * 8))
    print(result.hamming_distances)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "TDAMArray": "core.array",
    "TDAMConfig": "core.config",
    "SearchResult": "core.array",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
