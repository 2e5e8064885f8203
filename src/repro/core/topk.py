"""Shared top-k selection under the TD-AM ordering rule.

Every consumer of a search result ranks rows the same way the array's
winner resolution does: smallest decoded distance first, delay breaking
ties, then the lowest row index.  This module is the single home of
that ordering (:func:`top_k_indices`), previously copied across
``SearchResult.top_k``, ``BatchSearchResult.top_k``, and the serving
layer.  It is built from two vectorized steps, also used on their own
by the clustered index and the partitioned service:

- :func:`prune_survivors` -- keep, per query, the rows whose distance
  ties or beats the k-th smallest (every possible winner, ties kept);
- :func:`grouped_top_k` -- rank flattened ``(query, row)`` candidate
  pairs per query and take the first ``k`` of each group.

Neither step loops over queries in Python, and the final ordering is
always the exact lexicographic rule, so :func:`top_k_indices` is
bit-identical to a full lexsort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["grouped_top_k", "prune_survivors", "top_k_indices"]


def top_k_indices(
    distances: np.ndarray,
    k: int,
    delays_s: Optional[np.ndarray] = None,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the ``k`` best rows under (distance, delay, row) order.

    The one implementation of the search-result ranking rule: smallest
    distance first, ``delays_s`` breaking ties when given, then the row
    index (so results are deterministic under full ties).

    Args:
        distances: Decoded distances, shape ``(M,)`` or ``(Q, M)``.
        k: How many rows to return, ``1 <= k <= M``.
        delays_s: Optional matching-shape delays for the tie-break.
        row_ids: Optional global ids of the ``M`` columns (must be
            strictly increasing so the index tie-break is preserved);
            returned in place of positional indices.  Used when ranking
            a row *subset*.

    Returns:
        int64 indices, shape ``(k,)`` for 1-D input or ``(Q, k)``.
    """
    distances = np.asarray(distances)
    if distances.ndim not in (1, 2):
        raise ValueError(
            f"distances must be 1-D or 2-D, got shape {distances.shape}"
        )
    m = distances.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if row_ids is not None:
        row_ids = np.asarray(row_ids)
        if row_ids.shape != (m,):
            raise ValueError(
                f"row_ids shape {row_ids.shape} != ({m},)"
            )
        if m > 1 and not np.all(np.diff(row_ids) > 0):
            raise ValueError("row_ids must be strictly increasing")
    dist = distances.reshape(-1, m)
    q_idx, r_idx = prune_survivors(dist, k)
    secondary = None
    if delays_s is not None:
        secondary = np.asarray(delays_s).reshape(-1, m)[q_idx, r_idx]
    top = grouped_top_k(
        q_idx, r_idx, dist[q_idx, r_idx], k, dist.shape[0],
        secondary=secondary,
    )
    if row_ids is not None:
        top = row_ids[top]
    return top[0] if distances.ndim == 1 else top


def prune_survivors(
    distances: np.ndarray, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Candidate ``(query, row)`` pairs that can enter the top-k.

    A row can rank among a query's ``k`` best only if its distance ties
    or beats the query's k-th smallest distance, so exactly those rows
    are kept.  Ties are kept, so the surviving set always contains the
    true top-k under any tie-break (and at least ``k`` rows per query).

    Args:
        distances: Distances or mismatch counts, shape (Q, M).
        k: Top-k size, ``1 <= k <= M``.

    Returns:
        ``(query_idx, row_idx)`` int64 arrays of the surviving pairs,
        grouped by query in ascending row order.
    """
    distances = np.asarray(distances)
    if not 1 <= k <= distances.shape[1]:
        raise ValueError(
            f"k must be in [1, {distances.shape[1]}], got {k}"
        )
    kth = np.partition(distances, k - 1, axis=1)[:, k - 1]
    query_idx, row_idx = np.nonzero(distances <= kth[:, None])
    return query_idx.astype(np.int64), row_idx.astype(np.int64)


def grouped_top_k(
    query_idx: np.ndarray,
    row_idx: np.ndarray,
    primary: np.ndarray,
    k: int,
    n_queries: int,
    secondary: Optional[np.ndarray] = None,
    pad: Optional[int] = None,
) -> np.ndarray:
    """Per-query top-k rows from flattened candidate pairs.

    The ranking step of :func:`top_k_indices` -- and the scatter/gather
    merge of the clustered index and the partitioned service:
    candidates arrive as parallel ``(query_idx, row_idx)`` arrays with
    their exact ranking keys.  Ranking per query follows the shared
    rule -- ``primary``, then ``secondary`` when given, then
    ``row_idx``.

    By default each query must hold at least ``k`` candidates (which
    :func:`prune_survivors` guarantees).  A partitioned corpus serving
    with partitions skipped cannot guarantee that: passing ``pad``
    allows short (even empty) groups and fills the tail of their output
    rows with the pad value instead of raising -- the honest "fewer than
    k rows were reachable" answer.

    Args:
        query_idx: Query of each candidate pair (ascending), shape (P,).
        row_idx: Row of each candidate pair, shape (P,).
        primary: Primary sort key per pair (decoded distance / count).
        k: Rows to keep per query.
        n_queries: Number of queries (rows of the output).
        secondary: Optional secondary key per pair (delay tie-break).
        pad: Fill value for queries with fewer than ``k`` candidates;
            ``None`` (default) keeps the strict >= k contract.

    Returns:
        int64 row indices, shape ``(n_queries, k)``.
    """
    query_idx = np.asarray(query_idx)
    row_idx = np.asarray(row_idx)
    if secondary is None:
        order = np.lexsort((row_idx, primary, query_idx))
    else:
        order = np.lexsort((row_idx, secondary, primary, query_idx))
    counts = np.bincount(query_idx, minlength=n_queries)
    if pad is None and (counts < k).any():
        raise ValueError(
            f"every query needs >= {k} candidates, got min {counts.min()}"
        )
    starts = np.cumsum(counts) - counts
    rank = np.arange(k)
    # Full and short groups share one gather: a slot is filled only
    # when its group holds that many candidates.
    valid = rank[None, :] < counts[:, None]
    out = np.full(
        (n_queries, k), -1 if pad is None else int(pad), dtype=np.int64
    )
    out[valid] = row_idx[order[(starts[:, None] + rank[None, :])[valid]]]
    return out
