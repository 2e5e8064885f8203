"""Cluster-routed approximate top-k over a memmapped bit-plane store.

The scale-out shape of Kazemi et al. (arXiv 2011.07095): a coarse
quantizer routes each query to its ``nprobe`` nearest clusters, and
exact mismatch counts are then computed *inside only those shards*,
directly on the store's memmapped planes.  Each shard keeps its
tie-inclusive top-k candidates (:func:`prune_survivors`), and a
:func:`grouped_top_k` gather merges the shards under the shared
(distance, delay, row) ordering.

Exactness ladder:

- **Within probed shards the ranking is exact** -- the same packed
  popcounts, the same delay-law floats, the same TDC decode as the
  in-RAM array.
- **With ``nprobe = n_clusters`` the result is bit-identical to
  exhaustive ``top_k_batch``**: every global top-k row is within its
  own shard's top-k a fortiori, so it survives the shard's candidate
  cut, and identical per-pair keys make the global merge order
  identical.
- **With ``nprobe < n_clusters`` recall is tunable**: only rows in
  unprobed clusters can be missed, so recall@k vs. queries/s is set by
  the corpus's cluster structure and ``nprobe`` (measured by the
  ``ann`` bench in ``tools/bench_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.array import resolve_query_chunk
from repro.core.bitplane import (
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
)
from repro.core.config import TDAMConfig
from repro.core.encoding import validate_levels
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import CounterTDC
from repro.core.topk import grouped_top_k, prune_survivors, top_k_indices
from repro.hdc.cluster import HDCluster
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
        ladder = np.arange(self.config.levels, dtype=np.int64)[:, None, None]
        self._centroid_planes = pack_level_planes(
            ladder != cents[None, :, :]
        )
        self.n_clusters = cents.shape[0]
        # Cluster id -> shard position (-1: empty cluster, no shard).
        self._shard_of = np.full(self.n_clusters, -1, dtype=np.int64)
        clusters = store.shard_clusters
        if clusters.size and clusters.max() >= self.n_clusters:
            raise BitPlaneStoreError(
                f"store names cluster {int(clusters.max())} but only "
                f"{self.n_clusters} centroids are published"
            )
        self._shard_of[clusters] = np.arange(
            clusters.shape[0], dtype=np.int64
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
        sample; its float centroids are quantized to level vectors
        (member means, rounded and clipped), and the *full* corpus is
        then assigned to its Hamming-nearest quantized centroid with
        :func:`packed_mismatch_counts` -- the same metric the router
        uses at query time, so shard membership and routing share one
        Voronoi geometry.

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
        """
        levels_arr = validate_levels(
            levels_mat, config.levels, ndim=2, name="levels matrix"
        )
        n_rows = levels_arr.shape[0]
        if not 2 <= n_clusters <= n_rows:
            raise ValueError(
                f"n_clusters must be in [2, {n_rows}], got {n_clusters}"
            )
        rng = np.random.default_rng(seed)
        take = min(sample_size, n_rows)
        sample_idx = np.sort(rng.choice(n_rows, size=take, replace=False))
        sample = levels_arr[sample_idx].astype(np.float64)
        result = HDCluster(
            k=n_clusters,
            max_iterations=max_iterations,
            seed=seed,
            n_init=n_init,
        ).fit(sample)
        cents = np.empty(
            (n_clusters, config.n_stages), dtype=np.float64
        )
        for c in range(n_clusters):
            members = sample[result.assignments == c]
            cents[c] = (
                members.mean(axis=0) if len(members) else result.centroids[c]
            )
        cent_levels = np.clip(
            np.rint(cents), 0, config.levels - 1
        ).astype(np.uint8)
        cent_planes = pack_level_planes(
            np.arange(config.levels, dtype=np.int64)[:, None, None]
            != cent_levels[None, :, :]
        )
        assignments = np.empty(n_rows, dtype=np.int64)
        chunk = 65536
        for start in range(0, n_rows, chunk):
            block = levels_arr[start:start + chunk]
            masks = pack_query_masks(block, config.levels)
            counts = packed_mismatch_counts(cent_planes, masks)
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
        masks = pack_query_masks(q, self.config.levels)
        return self._route_masks(masks, self._resolve_nprobe(nprobe))

    def _resolve_nprobe(self, nprobe: Optional[int]) -> int:
        if nprobe is None:
            return self.nprobe
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(int(nprobe), self.n_clusters)

    def _route_masks(self, masks: np.ndarray, nprobe: int) -> np.ndarray:
        counts = packed_mismatch_counts(self._centroid_planes, masks)
        clusters = top_k_indices(counts, nprobe)
        if _TM.enabled:
            _emit_probe(
                "index.route",
                queries=int(masks.shape[0]),
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
        masks = pack_query_masks(q, self.config.levels)
        clusters = self._route_masks(masks, nprobe)
        # Invert routing into shard -> queries (a query probes a shard
        # at most once: routed clusters are distinct).
        flat_q = np.repeat(np.arange(n_q, dtype=np.int64), nprobe)
        flat_s = self._shard_of[clusters.ravel()]
        keep = flat_s >= 0
        flat_q, flat_s = flat_q[keep], flat_s[keep]
        order = np.argsort(flat_s, kind="stable")
        flat_q, flat_s = flat_q[order], flat_s[order]
        bounds = np.searchsorted(
            flat_s, np.arange(self.store.n_shards + 1)
        )
        cand_q: list = []
        cand_r: list = []
        cand_t: list = []
        rows_probed = 0
        n = self.config.n_stages
        for s in range(self.store.n_shards):
            qs = flat_q[bounds[s]:bounds[s + 1]]
            if qs.shape[0] == 0:
                continue
            shard = self.store.shard(s)
            planes = shard.planes
            ms = shard.n_rows
            rows_probed += ms * qs.shape[0]
            kk = min(k, ms)
            chunk = resolve_query_chunk(
                ms, n, working_set_bytes=int(planes.nbytes)
            )
            for start in range(0, qs.shape[0], chunk):
                block = qs[start:start + chunk]
                counts = packed_mismatch_counts(planes, masks[block])
                q_idx, r_idx = prune_survivors(counts, kk)
                cand_q.append(block[q_idx])
                cand_r.append(np.asarray(shard.row_ids)[r_idx])
                cand_t.append(counts[q_idx, r_idx])
        q_all = np.concatenate(cand_q) if cand_q else np.empty(0, np.int64)
        r_all = np.concatenate(cand_r) if cand_r else np.empty(0, np.int64)
        t_all = np.concatenate(cand_t) if cand_t else np.empty(0, np.int64)
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
