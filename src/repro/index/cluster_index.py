"""Cluster-routed approximate top-k over a memmapped bit-plane store.

The scale-out shape of Kazemi et al. (arXiv 2011.07095): a coarse
quantizer routes each query to its ``nprobe`` nearest clusters, and
exact mismatch counts are then computed *inside only those shards*,
directly on the store's memmapped stored-level bit-planes.  As that
multi-bit CAM searches every probed bank where it is stored, in one
shot, a batch is counted in one call: each shard is a contiguous run
of the corpus components whose offset is fixed at open, each query's
probed runs become one row of a padded position matrix, and
:func:`packed_pair_counts` gathers every pair straight from the mapped
planes -- nothing is concatenated per batch.  One
:func:`prune_survivors` keeps each query's tie-inclusive top-k
candidates, and a :func:`grouped_top_k` gather ranks them under the
shared (distance, delay, row) ordering.  A batch too large for the
kernels' memory budget is split into tiles of queries x probe columns,
each counted the same way.

Exactness ladder:

- **Within probed shards the ranking is exact** -- the same XOR
  popcounts, the same delay-law floats, the same TDC decode as the
  in-RAM array.
- **With ``nprobe = n_clusters`` the result is bit-identical to
  exhaustive ``top_k_batch``**: every row is counted, the
  tie-inclusive candidate cut keeps every global top-k row, and
  identical per-pair keys make the merge order identical.
- **With ``nprobe < n_clusters`` recall is tunable**: only rows in
  unprobed clusters can be missed, so recall@k vs. queries/s is set by
  the corpus's cluster structure and ``nprobe`` (measured by the
  ``ann`` bench in ``tools/bench_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.array import (
    MIN_QUERY_CHUNK,
    QUERY_CHUNK_BUDGET_BYTES,
    _budget_chunk,
)
from repro.core.bitplane import (
    pack_bit_planes,
    packed_pair_counts,
    packed_xor_counts,
)
from repro.core.config import TDAMConfig
from repro.core.encoding import validate_levels
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import CounterTDC
from repro.core.topk import grouped_top_k, prune_survivors, top_k_indices
from repro.hdc.cluster import HDCluster
from repro.hdc.hypervector import bundle_groups
from repro.index.store import (
    BitPlaneStore,
    BitPlaneStoreError,
    PathLike,
    build_store,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

__all__ = [
    "ClusteredTDAMIndex",
    "IndexTopKResult",
    "DEFAULT_NPROBE",
]

#: Default clusters probed per query (a ~C/nprobe scan reduction).
DEFAULT_NPROBE = 8

_REG = _metrics.get_registry()
_SEARCHES = _REG.counter(
    "index_searches_total", "Clustered-index top-k calls served"
)
_QUERIES = _REG.counter(
    "index_queries_total", "Queries served by the clustered index"
)
_ROWS_PROBED = _REG.counter(
    "index_rows_probed_total",
    "Rows counted across all probes",
)
_PROBE_FRACTION = _REG.histogram(
    "index_probe_fraction",
    "Fraction of the corpus scanned per top-k call (rows probed / "
    "rows total / queries)",
)


@dataclass(frozen=True)
class IndexTopKResult:
    """Outcome of one routed top-k batch.

    Attributes:
        rows: Global row ids, shape (Q, k), best first; ``-1`` pads
            queries whose probed shards held fewer than ``k`` rows.
        distances: Decoded Hamming distances of ``rows`` (``-1`` on
            pads).
        delays_s: Modeled chain delays of ``rows`` (``inf`` on pads).
        clusters: Probed cluster ids per query, shape (Q, nprobe).
        nprobe: Clusters probed per query.
        rows_probed: Rows counted across the whole batch
            (query-weighted: a shard probed by two queries counts its
            rows twice).
        rows_total: Corpus size, for probe-fraction accounting.
    """

    rows: np.ndarray
    distances: np.ndarray
    delays_s: np.ndarray
    clusters: np.ndarray
    nprobe: int
    rows_probed: int
    rows_total: int

    @property
    def probe_fraction(self) -> float:
        """Scanned fraction of (rows x queries) -- the work saved."""
        denom = self.rows_total * max(1, self.rows.shape[0])
        return self.rows_probed / denom if denom else 0.0


class ClusteredTDAMIndex:
    """Coarse-quantized ANN search over a :class:`BitPlaneStore`.

    Args:
        store: A published store built *with* centroids (see
            :meth:`build`); opening is cheap -- shards map lazily as
            probes touch them.
        nprobe: Default clusters probed per query (overridable per
            call), clamped to ``[1, n_clusters]``.
    """

    def __init__(self, store: BitPlaneStore, nprobe: int = DEFAULT_NPROBE):
        cents = store.centroid_levels
        if cents is None:
            raise BitPlaneStoreError(
                "store has no centroid component; build it through "
                "ClusteredTDAMIndex.build (or pass centroid_levels to "
                "build_store) to enable routing"
            )
        self.store = store
        self.config: TDAMConfig = store.config
        timing = TimingEnergyModel(self.config)
        self.tdc = CounterTDC(self.config, timing)
        self._base_delay = 2 * self.config.n_stages * timing.d_inv
        self._d_c = timing.d_c
        self._centroid_planes = pack_bit_planes(cents, self.config.bits)
        self.n_clusters = cents.shape[0]
        # Cluster id -> shard position (-1: empty cluster, no shard).
        # The store has checked that cluster ids are distinct and name
        # a published centroid.
        self._shard_of = np.full(self.n_clusters, -1, dtype=np.int64)
        self._shard_of[store.shard_clusters] = np.arange(
            store.n_shards, dtype=np.int64
        )
        # Corpus offset and rows of each shard position; the trailing
        # zeros are what position -1 (an empty cluster) reads.
        shards = [store.shard(i) for i in range(store.n_shards)]
        self._shard_start = np.array(
            [s.offset for s in shards] + [0], dtype=np.int64
        )
        self._shard_rows = np.array(
            [s.n_rows for s in shards] + [0], dtype=np.int64
        )
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.nprobe = min(nprobe, self.n_clusters)

    @property
    def n_rows(self) -> int:
        """Corpus rows served by this index."""
        return self.store.n_rows

    @classmethod
    def build(
        cls,
        path: PathLike,
        levels_mat: Sequence[Sequence[int]],
        config: TDAMConfig,
        n_clusters: int,
        nprobe: int = DEFAULT_NPROBE,
        seed: int = 0,
        sample_size: int = 16384,
        n_init: int = 2,
        max_iterations: int = 20,
    ) -> "ClusteredTDAMIndex":
        """Cluster a corpus, pack it, publish the store, open the index.

        The coarse quantizer is :class:`HDCluster` fit on a random
        sample, less its all-zero rows (they have no cosine); its float
        centroids are quantized to level vectors (member means, rounded
        and clipped), and the *full* corpus, zero rows included, is
        then assigned to its Hamming-nearest quantized centroid with
        :func:`packed_xor_counts` -- the same metric the router uses at
        query time, so shard membership and routing share one Voronoi
        geometry.  The assignment counts the corpus in row chunks sized
        by the kernels' memory budget.

        Args:
            path: Store directory.
            levels_mat: Stored levels, shape (M, N).
            config: Design point.
            n_clusters: Coarse clusters (>= 2, <= M).
            nprobe: Default clusters probed per query.
            seed: Sampling + clustering seed.
            sample_size: Rows sampled for the quantizer fit.
            n_init: Clustering restarts (small: the quantizer only
                needs to be roughly right, routing recall is tunable).
            max_iterations: Lloyd iteration cap per restart.

        Raises:
            ValueError: Invalid levels or ``n_clusters``, or fewer
                sampled rows that are not all-zero than ``n_clusters``.
        """
        # uint8 holds every level (bits <= 8) in an eighth of the bytes.
        levels_arr = validate_levels(
            levels_mat, config.levels, ndim=2, name="levels matrix",
            dtype=np.uint8,
        )
        n_rows = levels_arr.shape[0]
        if not 2 <= n_clusters <= n_rows:
            raise ValueError(
                f"n_clusters must be in [2, {n_rows}], got {n_clusters}"
            )
        rng = np.random.default_rng(seed)
        take = min(sample_size, n_rows)
        sample_idx = np.sort(rng.choice(n_rows, size=take, replace=False))
        sample = levels_arr[sample_idx]
        # An all-zero row has no cosine; the quantizer fits without it
        # and the Hamming assignment below still places it.
        sample = sample[sample.any(axis=1)].astype(np.float64)
        if sample.shape[0] < n_clusters:
            raise ValueError(
                f"only {sample.shape[0]} of {take} sampled rows are not "
                f"all-zero; the quantizer needs at least n_clusters="
                f"{n_clusters}"
            )
        result = HDCluster(
            k=n_clusters,
            max_iterations=max_iterations,
            seed=seed,
            n_init=n_init,
        ).fit(sample)
        # Each centroid is its members' mean; an empty cluster keeps the
        # quantizer's re-seeded centroid.
        sums, counts = bundle_groups(sample, result.assignments, n_clusters)
        cents = result.centroids
        np.divide(sums, counts[:, None], out=cents, where=counts[:, None] > 0)
        cent_levels = np.clip(
            np.rint(cents), 0, config.levels - 1
        ).astype(np.uint8)
        cent_planes = pack_bit_planes(cent_levels, config.bits)
        assignments = np.empty(n_rows, dtype=np.int64)
        # Each corpus row allocates, against every centroid, its XOR
        # words (bits * B bytes), about a byte of popcounts and its
        # count widened to int64: numpy's argmin runs several times
        # faster on int64 than on the kernel's narrow counts.
        words = cent_planes.shape[0] * cent_planes.shape[2]
        chunk = _budget_chunk(n_clusters * (words + 9))
        for start in range(0, n_rows, chunk):
            block = pack_bit_planes(
                levels_arr[start:start + chunk], config.bits
            )
            counts = packed_xor_counts(cent_planes, block).astype(np.int64)
            assignments[start:start + chunk] = counts.argmin(axis=1)
        store = build_store(
            path,
            levels_arr,
            config,
            assignments=assignments,
            centroid_levels=cent_levels,
        )
        return cls(store, nprobe=nprobe)

    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        q = validate_levels(
            queries, self.config.levels, ndim=2, name="query matrix"
        )
        if q.shape[1] != self.config.n_stages:
            raise ValueError(
                f"queries have {q.shape[1]} stages, the index serves "
                f"{self.config.n_stages}"
            )
        return q

    def route(
        self, queries: np.ndarray, nprobe: Optional[int] = None
    ) -> np.ndarray:
        """Per-query nearest cluster ids, shape (Q, nprobe).

        Hamming distance of each query against the quantized centroid
        planes, ranked by the shared (distance, id) rule -- ties go to
        the lower cluster id, deterministically.
        """
        q = self._validate_queries(np.asarray(queries))
        query_bits = pack_bit_planes(q, self.config.bits)
        return self._route_masks(query_bits, self._resolve_nprobe(nprobe))

    def _resolve_nprobe(self, nprobe: Optional[int]) -> int:
        if nprobe is None:
            return self.nprobe
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(int(nprobe), self.n_clusters)

    def _route_masks(
        self, query_bits: np.ndarray, nprobe: int
    ) -> np.ndarray:
        """Nearest ``nprobe`` clusters of packed query bit-planes
        ``(bits, Q, B)``, by XOR counts against the centroid planes."""
        counts = packed_xor_counts(self._centroid_planes, query_bits)
        clusters = top_k_indices(counts, nprobe)
        if _TM.enabled:
            _emit_probe(
                "index.route",
                queries=int(query_bits.shape[1]),
                nprobe=int(nprobe),
                clusters=int(np.unique(clusters).shape[0]),
            )
        return clusters

    def top_k(
        self,
        queries: Union[np.ndarray, Sequence[Sequence[int]]],
        k: int,
        nprobe: Optional[int] = None,
    ) -> IndexTopKResult:
        """Routed approximate top-k (exact inside the probed shards).

        Args:
            queries: Query levels, shape (Q, n_stages).
            k: Rows per query, ``1 <= k <= n_rows``.
            nprobe: Clusters probed per query (default: the index's).

        Returns:
            :class:`IndexTopKResult`; ``rows[i, j] = -1`` pads queries
            whose probed shards held fewer than ``k`` rows.
        """
        q = self._validate_queries(np.asarray(queries))
        if not 1 <= k <= self.n_rows:
            raise ValueError(f"k must be in [1, {self.n_rows}], got {k}")
        nprobe = self._resolve_nprobe(nprobe)
        n_q = q.shape[0]
        query_bits = pack_bit_planes(q, self.config.bits)
        clusters = self._route_masks(query_bits, nprobe)
        shards = self._shard_of[clusters]
        sizes = self._shard_rows[shards]
        rows_probed = int(sizes.sum())
        # Each (query, candidate row) pair of a tile allocates its
        # gathered XOR words (bits * B bytes, held twice past one word
        # while packed_pair_counts moves them word-major) and at most 40
        # bytes more: int64 positions and their offsets, byte-wide
        # counts, popcounts and masks, and two int16 copies of the
        # counts in prune_survivors.  A tile
        # takes as many probe columns as MIN_QUERY_CHUNK queries can
        # count within the budget, then as many queries as the kernels'
        # budget rule allows its widest one.
        words = query_bits.shape[0] * query_bits.shape[2]
        pair_bytes = (words if query_bits.shape[2] == 8 else 2 * words) + 40
        column_bytes = (
            MIN_QUERY_CHUNK * pair_bytes * max(1, int(sizes.max(initial=0)))
        )
        cols = min(nprobe, max(1, QUERY_CHUNK_BUDGET_BYTES // column_bytes))
        parts = []
        for col in range(0, nprobe, cols):
            block = shards[:, col:col + cols]
            widths = sizes[:, col:col + cols].sum(axis=1)
            chunk = _budget_chunk(
                pair_bytes * max(1, int(widths.max(initial=0)))
            )
            parts += [
                self._count_tile(
                    query_bits[:, start:start + chunk],
                    block[start:start + chunk],
                    widths[start:start + chunk],
                    k,
                    start,
                )
                for start in range(0, n_q, chunk)
            ]
        q_all, r_all, t_all = (
            map(np.concatenate, zip(*parts))
            if parts else (np.empty(0, dtype=np.int64),) * 3
        )
        # Exact re-ranking keys: the same delay-law floats and TDC
        # decode as the exhaustive path, so the merged order is the
        # array's order.
        delays = self._base_delay + t_all * self._d_c
        distances = self.tdc.decode_array(delays)
        rows = grouped_top_k(
            q_all, r_all, distances, k, n_q, secondary=delays, pad=-1
        )
        dist_out, delay_out = self._gather_keys(
            q_all, r_all, distances, delays, rows
        )
        result = IndexTopKResult(
            rows=rows,
            distances=dist_out,
            delays_s=delay_out,
            clusters=clusters,
            nprobe=nprobe,
            rows_probed=rows_probed,
            rows_total=self.n_rows,
        )
        _SEARCHES.inc()
        _QUERIES.inc(n_q)
        _ROWS_PROBED.inc(rows_probed)
        _PROBE_FRACTION.observe(result.probe_fraction)
        if _TM.enabled:
            _emit_probe(
                "index.probe",
                queries=int(n_q),
                k=int(k),
                nprobe=int(nprobe),
                rows_probed=int(rows_probed),
                rows_total=int(self.n_rows),
                candidates=int(q_all.shape[0]),
            )
        return result

    def _count_tile(
        self,
        query_bits: np.ndarray,
        shards: np.ndarray,
        widths: np.ndarray,
        k: int,
        first: int,
    ) -> tuple:
        """Tie-inclusive top-k candidates of one tile, in one count.

        Query ``i``'s probed shards fill row ``i`` of a ``(Q, W)``
        matrix of corpus positions (``W`` the widest query's), and one
        :func:`packed_pair_counts` call counts every pair against the
        store's mapped planes.  Pads count ``n_stages + 1``, above every
        real count, so they never displace a row and are dropped after
        one :func:`prune_survivors`.

        Returns:
            ``(query, global row, count)`` arrays of the surviving
            pairs, the counts in the kernel's narrow dtype; queries
            are numbered from ``first``.
        """
        width = int(widths.max(initial=0))
        if width == 0:
            return (np.empty(0, dtype=np.int64),) * 3
        # Row i of the position matrix is query i's probe runs, each
        # counting up from its shard's corpus offset, then one pad run
        # from 0 out to the tile width: flattened, consecutive runs.
        n_q = shards.shape[0]
        run_starts = np.zeros((n_q, shards.shape[1] + 1), dtype=np.int64)
        run_starts[:, :-1] = self._shard_start[shards]
        run_sizes = np.empty_like(run_starts)
        run_sizes[:, :-1] = self._shard_rows[shards]
        run_sizes[:, -1] = width - widths
        run_sizes = run_sizes.ravel()
        run_begins = np.cumsum(run_sizes) - run_sizes
        pos = np.repeat(run_starts.ravel() - run_begins, run_sizes)
        pos += np.arange(n_q * width)
        pos = pos.reshape(n_q, width)
        counts = packed_pair_counts(self.store.planes, query_bits, pos)
        n = self.config.n_stages
        counts[np.arange(width) >= widths[:, None]] = n + 1
        q_idx, w_idx = prune_survivors(counts, min(k, width))
        t = counts[q_idx, w_idx]
        real = t <= n
        q_idx, w_idx, t = q_idx[real], w_idx[real], t[real]
        return first + q_idx, self.store.row_ids[pos[q_idx, w_idx]], t

    def _gather_keys(
        self,
        q_all: np.ndarray,
        r_all: np.ndarray,
        distances: np.ndarray,
        delays: np.ndarray,
        rows: np.ndarray,
    ) -> tuple:
        """Distances/delays of the selected rows, via a sorted lookup.

        ``(query, row)`` candidate pairs are unique -- a row lives in
        exactly one shard and a query probes each shard at most once --
        so a lexicographic searchsorted recovers each selection's keys.
        """
        n_q, k = rows.shape
        dist_out = np.full((n_q, k), -1, dtype=np.int64)
        delay_out = np.full((n_q, k), np.inf, dtype=np.float64)
        if q_all.shape[0] == 0:
            return dist_out, delay_out
        stride = self.n_rows + 1
        key_all = q_all * stride + r_all
        sorter = np.argsort(key_all)
        sorted_keys = key_all[sorter]
        valid = rows >= 0
        q_grid = np.broadcast_to(
            np.arange(n_q, dtype=np.int64)[:, None], rows.shape
        )
        wanted = q_grid[valid] * stride + rows[valid]
        pos = sorter[np.searchsorted(sorted_keys, wanted)]
        dist_out[valid] = distances[pos]
        delay_out[valid] = delays[pos]
        return dist_out, delay_out

    def __repr__(self) -> str:
        return (
            f"ClusteredTDAMIndex({self.n_rows} rows, "
            f"{self.n_clusters} clusters, nprobe={self.nprobe})"
        )
