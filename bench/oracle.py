"""Exact nearest-row answers in plain numpy, independent of ``repro``.

Under nominal timing a TD-AM row's delay grows strictly with its
mismatch count, so the array's (distance, delay, row) order is the
order of the single integer key ``count * M + row``.  The oracle ranks
that key directly, over blocks of rows; it never calls the code under
test.
"""

from __future__ import annotations

import numpy as np

#: Queries and rows per comparison block (bounds the boolean transient).
_QUERY_BLOCK = 16
_ROW_BLOCK = 16384


def exact_top_k(stored: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` best rows per query by key ``count * M + row``, (Q, k)."""
    stored = np.asarray(stored, dtype=np.uint8)
    queries = np.asarray(queries, dtype=np.uint8)
    m = stored.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    rows = np.arange(m, dtype=np.int64)
    for q0 in range(0, queries.shape[0], _QUERY_BLOCK):
        block = queries[q0:q0 + _QUERY_BLOCK, None, :]
        keys = np.empty((block.shape[0], m), dtype=np.int64)
        for r0 in range(0, m, _ROW_BLOCK):
            counts = np.count_nonzero(
                stored[None, r0:r0 + _ROW_BLOCK, :] != block, axis=2
            )
            keys[:, r0:r0 + _ROW_BLOCK] = counts * m + rows[r0:r0 + _ROW_BLOCK]
        if k < m:
            keys.partition(k - 1, axis=1)
        keys = np.sort(keys[:, :k], axis=1)
        out[q0:q0 + _QUERY_BLOCK] = keys % m
    return out
