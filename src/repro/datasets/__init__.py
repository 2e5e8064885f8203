"""Synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates HDC on three UCI-style datasets that are not
available offline, so this package generates seeded synthetic equivalents
matching each dataset's *shape* and difficulty profile (see DESIGN.md
section 2 for the substitution rationale):

- **ISOLET** [43]: spoken-letter recognition, 617 features, 26 classes,
  medium separability.
- **UCIHAR** [44]: smartphone activity recognition, 561 features, 6
  classes, with intentionally confusable class pairs (e.g. walking vs.
  walking-upstairs) -- the hardest of the three at low precision.
- **FACE** [42]: face detection, 608 features, binary, well separated.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Dataset": "synthetic",
    "make_isolet_like": "synthetic",
    "make_ucihar_like": "synthetic",
    "make_face_like": "synthetic",
    "make_clustered_levels": "synthetic",
    "perturb_levels": "synthetic",
    "standard_suite": "synthetic",
    "load_csv_dataset": "loaders",
    "load_isolet": "loaders",
    "load_ucihar": "loaders",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
