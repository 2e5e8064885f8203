"""Partitioned serving: one logical corpus across disjoint row ranges.

A replicated :class:`~repro.service.server.TDAMSearchService` scales
*availability* (every shard holds the whole corpus); this module scales
*capacity*: :class:`PartitionedTDAMService` splits the corpus across
partitions -- each itself a full ``TDAMSearchService`` with its own
replicas, breakers, retries, and deadline discipline -- and serves
queries by **scatter/gather**:

- *scatter*: every partition searches its own row range under the
  request's remaining deadline;
- *gather*: per-partition distances are merged through
  :func:`~repro.core.topk.grouped_top_k` with **global** row ids under
  the shared ranking rule (distance, then delay, then row index), so
  a partitioned corpus ranks bit-identically to a monolithic one when
  every partition answers.

When a partition cannot answer -- breaker open, replicas down,
deadline spent -- it is *skipped*, not waited on, and the response says
so: ``degraded=True``, ``coverage < 1.0`` (fraction of stored rows
actually searched), and the partition named in ``partitions_skipped``.
Top-k rows that were unreachable are padded with ``-1`` rather than
invented.  A ``degraded=False`` answer remains a correctness promise:
every stored row was consulted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.topk import grouped_top_k
from repro.service.errors import (
    AllShardsUnavailableError,
    InvalidRequestError,
    ServiceError,
)
from repro.service.response import ServiceResponse
from repro.service.server import TDAMSearchService
from repro.telemetry import metrics as _metrics
from repro.telemetry.log import get_logger
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM
from repro.telemetry.trace import span as _span

__all__ = ["PartitionedTDAMService"]

_log = get_logger(__name__)

_REG = _metrics.get_registry()
_GATHERS = _REG.counter(
    "partition_gather_total",
    "Scatter/gather merges completed, by outcome (ok/degraded)",
    labels=("outcome",),
)
_COVERAGE = _REG.histogram(
    "partition_coverage",
    "Fraction of stored rows reachable per gathered request",
    buckets=(0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
)


@dataclass
class _Partition:
    """One row-range slice: its service and global id range."""

    partition_id: str
    service: TDAMSearchService
    row_offset: int

    @property
    def n_rows(self) -> int:
        return self.service.n_rows


class PartitionedTDAMService:
    """Scatter/gather search over partitions of one logical corpus.

    Partition ``i`` owns global rows ``[offset_i, offset_i +
    partition.n_rows)`` in declaration order.  The public surface
    mirrors :class:`~repro.service.server.TDAMSearchService` closely
    enough that :class:`~repro.service.frontend.CoalescingFrontend`
    fronts either interchangeably (``validate_query`` /
    ``search_batch`` / ``top_k`` / ``n_rows`` /
    ``default_deadline_s``).

    Args:
        partitions: The per-range services, in global row order.  All
            must share stage count and level count (one query serves
            them all); row counts may differ.
        clock: Monotonic time source for deadline accounting (injected
            for determinism; defaults to the first partition's clock
            semantics via ``time.monotonic``).
    """

    def __init__(
        self,
        partitions: Sequence[TDAMSearchService],
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not partitions:
            raise ValueError("at least one partition is required")
        first = partitions[0]
        for service in partitions[1:]:
            if (
                service.config.n_stages != first.config.n_stages
                or service.config.levels != first.config.levels
            ):
                raise ValueError(
                    "partitions must share query geometry "
                    "(n_stages, levels); row counts may differ"
                )
        self.config = first.config
        self.default_deadline_s = first.default_deadline_s
        self._clock = clock if clock is not None else time.monotonic
        self.partitions: List[_Partition] = []
        offset = 0
        for i, service in enumerate(partitions):
            self.partitions.append(
                _Partition(
                    partition_id=f"part{i}",
                    service=service,
                    row_offset=offset,
                )
            )
            offset += service.n_rows
        self.n_rows = offset

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program the whole corpus, each partition its row slice.

        Raises:
            InvalidRequestError: Wrong total row count or bad values.
            ReplicaDivergenceError: A partition's replica fan-out
                failed mid-write (propagated from the partition, whose
                unwritten replicas are quarantined).
        """
        values = np.atleast_2d(np.asarray(matrix))
        if values.shape[0] != self.n_rows:
            raise InvalidRequestError(
                f"stored matrix has {values.shape[0]} rows, "
                f"partitioned corpus holds {self.n_rows}"
            )
        for part in self.partitions:
            part.service.write_all(
                values[part.row_offset:part.row_offset + part.n_rows]
            )

    def partition_of(self, row: int) -> str:
        """The partition id owning one global row."""
        if not 0 <= row < self.n_rows:
            raise InvalidRequestError(
                f"row must be in [0, {self.n_rows}), got {row}"
            )
        for part in self.partitions:
            if row < part.row_offset + part.n_rows:
                return part.partition_id
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Health / housekeeping
    # ------------------------------------------------------------------
    def validate_query(self, query) -> np.ndarray:
        """Validate one query against the shared geometry (no serving)."""
        return self.partitions[0].service.validate_query(query)

    def run_health_checks(self) -> dict:
        """Run every partition's breaker health checks; id -> states."""
        return {
            part.partition_id: part.service.run_health_checks()
            for part in self.partitions
        }

    def advance_time(self, dt_s: float) -> int:
        """Age every partition's replicas; total shards refreshed."""
        return sum(
            part.service.advance_time(dt_s) for part in self.partitions
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def search(
        self, query: Sequence[int], deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Serve one query across all partitions; gathered best match."""
        return self.search_batch([query], deadline_s=deadline_s)[0]

    def search_batch(
        self,
        queries: Sequence[Sequence[int]],
        deadline_s: Optional[float] = None,
    ) -> List[ServiceResponse]:
        """Serve a query batch across all partitions.

        Scatter under a shared deadline, gather per-query winners under
        the global ranking rule.  Partitions that cannot answer are
        skipped and reported, never silently missing.

        Raises:
            InvalidRequestError: The batch failed admission.
            AllShardsUnavailableError: No partition answered at all.
        """
        scatter = self._scatter(queries, deadline_s)
        rows = self._merge_top_k(scatter, k=1)[:, 0]
        responses = []
        for q, best in enumerate(rows.tolist()):
            responses.append(
                ServiceResponse(
                    best_row=best,
                    best_distance=(
                        scatter.distance_of(q, best) if best >= 0 else -1.0
                    ),
                    **scatter.meta,
                )
            )
        return responses

    def top_k(
        self,
        queries: Sequence[Sequence[int]],
        k: int,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve a batched top-k across all partitions.

        The gather merges every searched partition's distances through
        :func:`~repro.core.topk.grouped_top_k` with global row ids;
        unreachable tail entries are padded with ``-1``.
        """
        if not 1 <= k <= self.n_rows:
            raise InvalidRequestError(
                f"k must be in [1, {self.n_rows}], got {k}"
            )
        scatter = self._scatter(queries, deadline_s)
        return ServiceResponse(
            rows=self._merge_top_k(scatter, k=k), **scatter.meta
        )

    # ------------------------------------------------------------------
    # Scatter/gather core
    # ------------------------------------------------------------------
    def _scatter(
        self, queries, deadline_s: Optional[float]
    ) -> "_Scatter":
        # The scatter span inherits the active request/batch context,
        # tying every per-partition search to the request ids it
        # serves.
        if not (_TM.enabled and _TM.tracing):
            return self._scatter_inner(queries, deadline_s)
        with _span(
            "partition.scatter", partitions=len(self.partitions)
        ) as sp:
            scatter = self._scatter_inner(queries, deadline_s)
            sp.set_attr("coverage", scatter.coverage)
            sp.set_attr("skipped", list(scatter.skipped))
            return scatter

    def _scatter_inner(
        self, queries, deadline_s: Optional[float]
    ) -> "_Scatter":
        # Admitted once, up front: a malformed batch is the caller's
        # error, not an outage of every partition it would fail in.
        queries = self.partitions[0].service._admit_matrix(
            queries, name="query batch"
        )
        deadline_s = (
            deadline_s if deadline_s is not None else self.default_deadline_s
        )
        if deadline_s <= 0:
            raise InvalidRequestError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        start = self._clock()
        deadline = start + deadline_s
        searched: List[str] = []
        skipped: List[str] = []
        distance_blocks: List[np.ndarray] = []
        delay_blocks: List[np.ndarray] = []
        row_id_blocks: List[np.ndarray] = []
        rows_covered = 0
        any_degraded = False
        n_queries = -1
        last_error: Optional[BaseException] = None
        for part in self.partitions:
            remaining = deadline - self._clock()
            if remaining <= 0:
                # Deadline spent: remaining partitions are skipped, not
                # raced -- a partial answer that says so beats a miss.
                skipped.append(part.partition_id)
                continue
            try:
                with _span(
                    "partition.search",
                    partition=part.partition_id,
                    remaining_s=remaining,
                ):
                    responses = part.service.search_batch(
                        queries, deadline_s=remaining
                    )
            except ServiceError as exc:
                last_error = exc
                skipped.append(part.partition_id)
                continue
            n_queries = len(responses)
            searched.append(part.partition_id)
            rows_covered += part.n_rows
            any_degraded = any_degraded or any(
                r.degraded for r in responses
            )
            distance_blocks.append(
                np.stack([r.result.hamming_distances for r in responses])
            )
            delay_blocks.append(
                np.stack([r.result.delays_s for r in responses])
            )
            row_id_blocks.append(
                part.row_offset + np.arange(part.n_rows, dtype=np.int64)
            )
        if not searched:
            raise AllShardsUnavailableError(
                f"no partition could serve the request "
                f"(last error: {last_error!r})"
            ) from last_error
        elapsed = self._clock() - start
        coverage = rows_covered / self.n_rows
        degraded = any_degraded or bool(skipped)
        if _TM.enabled:
            _GATHERS.inc(outcome="degraded" if degraded else "ok")
            _COVERAGE.observe(coverage)
            _emit_probe(
                "partition.gather",
                queries=n_queries,
                partitions_searched=len(searched),
                partitions_skipped=len(skipped),
                coverage=coverage,
                elapsed_s=elapsed,
            )
        return _Scatter(
            n_queries=n_queries,
            distances=np.concatenate(distance_blocks, axis=1),
            delays=np.concatenate(delay_blocks, axis=1),
            row_ids=np.concatenate(row_id_blocks),
            skipped=tuple(skipped),
            coverage=coverage,
            degraded=degraded,
            elapsed_s=elapsed,
        )

    def _merge_top_k(self, scatter: "_Scatter", k: int) -> np.ndarray:
        n_q = scatter.n_queries
        n_reachable = scatter.row_ids.shape[0]
        query_idx = np.repeat(
            np.arange(n_q, dtype=np.int64), n_reachable
        )
        row_idx = np.tile(scatter.row_ids, n_q)
        return grouped_top_k(
            query_idx,
            row_idx,
            scatter.distances.ravel(),
            k,
            n_q,
            secondary=scatter.delays.ravel(),
            pad=-1,
        )

    def __repr__(self) -> str:
        ranges = {
            p.partition_id: (p.row_offset, p.row_offset + p.n_rows)
            for p in self.partitions
        }
        return (
            f"PartitionedTDAMService({len(self.partitions)} partitions, "
            f"{self.n_rows} rows, {ranges})"
        )


@dataclass
class _Scatter:
    """Gathered per-partition results awaiting the merge."""

    n_queries: int
    distances: np.ndarray          # (Q, reachable rows)
    delays: np.ndarray             # (Q, reachable rows)
    row_ids: np.ndarray            # (reachable rows,) global, ascending
    skipped: Tuple[str, ...]
    coverage: float
    degraded: bool
    elapsed_s: float
    _row_pos: dict = field(default_factory=dict, repr=False)

    @property
    def meta(self) -> dict:
        """The gather's honesty metadata as response fields."""
        return dict(
            degraded=self.degraded,
            coverage=self.coverage,
            partitions_skipped=self.skipped,
            elapsed_s=self.elapsed_s,
        )

    def distance_of(self, query: int, global_row: int) -> float:
        """Decoded distance of one (query, global row) pair."""
        if not self._row_pos:
            self._row_pos.update(
                (int(r), i) for i, r in enumerate(self.row_ids)
            )
        return float(self.distances[query, self._row_pos[int(global_row)]])
