"""Reference implementations the exactness suites compare against.

Each recomputes a quantity from first principles, sharing no cache or
kernel with the code under test.
"""

import numpy as np


def batched_mismatch_counts(queries, vth_a, vth_b, vsl, levels, von):
    """Per-row mismatch counts of a query batch, shape (Q, M).

    Materializes the (Q, M, N) conduction tensor ``F_A on | F_B on``
    straight from per-cell thresholds and reduces it over stages: the
    arithmetic of :meth:`repro.core.array.FastTDAMArray.mismatch_matrix`
    for every query at once.

    Args:
        queries: Query levels, shape (Q, N).
        vth_a: Per-cell F_A thresholds including offsets, shape (M, N).
        vth_b: Per-cell F_B thresholds including offsets, shape (M, N).
        vsl: Search-line ladder indexed by level, shape (levels,).
        levels: Number of storable levels.
        von: Calibrated switch-on overdrive (V).
    """
    queries = np.asarray(queries)
    vsl_a = vsl[queries][:, None, :]
    vsl_b = vsl[levels - 1 - queries][:, None, :]
    fa_on = (vsl_a - vth_a[None, :, :]) >= von
    fb_on = (vsl_b - vth_b[None, :, :]) >= von
    return (fa_on | fb_on).sum(axis=2)
