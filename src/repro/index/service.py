"""Serving adapter: a :class:`ClusteredTDAMIndex` as a service backend.

:class:`IndexSearchService` speaks the same backend contract as
:class:`~repro.service.server.TDAMSearchService` -- ``validate_query``,
``search`` / ``search_batch`` / ``top_k`` with per-request deadlines,
``n_rows``, ``default_deadline_s`` -- so
:class:`~repro.service.frontend.CoalescingFrontend` (and anything else
written against that contract) can put admission control, coalescing,
and load shedding in front of a million-row memmapped index unchanged.

One semantic deliberately differs from the replicated service:
``nprobe < n_clusters`` answers are **approximate by request**, not
degraded by failure.  Responses carry ``approximate=True`` in that case
while ``degraded`` stays ``False`` -- the index is healthy and served
exactly what was asked; recall is the client's chosen operating point.
``degraded`` keeps meaning "the answer may be worse than what you
asked for".
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.encoding import validate_levels
from repro.index.cluster_index import ClusteredTDAMIndex
from repro.service.errors import DeadlineExceededError, InvalidRequestError
from repro.service.response import ServiceResponse
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM
from repro.telemetry.trace import span as _span

__all__ = ["IndexSearchService"]

#: Default per-request deadline (generous: a routed probe of a
#: million-row corpus completes in a few milliseconds per query block).
DEFAULT_INDEX_DEADLINE_S = 0.25


class IndexSearchService:
    """Deadline-aware serving facade over a clustered ANN index.

    Args:
        index: The routed index to serve.
        default_deadline_s: Deadline when a request names none.
        nprobe: Default routing width (``None``: the index's own).
        clock: Injectable monotonic clock (tests use a fake).
    """

    def __init__(
        self,
        index: ClusteredTDAMIndex,
        default_deadline_s: float = DEFAULT_INDEX_DEADLINE_S,
        nprobe: Optional[int] = None,
        clock=time.monotonic,
    ) -> None:
        if default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        self.index = index
        self.config = index.config
        self.default_deadline_s = default_deadline_s
        self.nprobe = nprobe
        self._clock = clock

    @property
    def n_rows(self) -> int:
        """Corpus rows served."""
        return self.index.n_rows

    def validate_query(self, query) -> np.ndarray:
        """Admission: validate one query without serving it.

        Raises:
            InvalidRequestError: Shape, dtype, or level range is wrong.
        """
        try:
            q = validate_levels(
                query, self.config.levels, ndim=1, name="query"
            )
        except ValueError as exc:
            raise InvalidRequestError(str(exc)) from exc
        if q.shape[0] != self.config.n_stages:
            raise InvalidRequestError(
                f"query has {q.shape[0]} stages, the index serves "
                f"{self.config.n_stages}"
            )
        return q

    def _admit_matrix(self, queries) -> np.ndarray:
        try:
            qs = validate_levels(
                queries, self.config.levels, ndim=2, name="query batch"
            )
        except ValueError as exc:
            raise InvalidRequestError(str(exc)) from exc
        if qs.shape[1] != self.config.n_stages:
            raise InvalidRequestError(
                f"queries have {qs.shape[1]} stages, the index serves "
                f"{self.config.n_stages}"
            )
        if qs.shape[0] < 1:
            raise InvalidRequestError("query batch is empty")
        return qs

    def _resolve_deadline(self, deadline_s: Optional[float]) -> float:
        deadline = (
            deadline_s if deadline_s is not None else self.default_deadline_s
        )
        if deadline <= 0:
            self._count("rejected")
            raise InvalidRequestError(
                f"deadline_s must be > 0, got {deadline}"
            )
        return deadline

    def _count(self, outcome: str, elapsed: Optional[float] = None) -> None:
        if _TM.enabled:
            _emit_probe(
                "service.request",
                outcome=outcome,
                shard="index",
                attempts=1,
                elapsed_s=float(elapsed if elapsed is not None else 0.0),
            )

    def _finish(self, start: float, deadline_s: float) -> float:
        """Elapsed time, or a deadline miss raised the service way."""
        elapsed = self._clock() - start
        if elapsed > deadline_s:
            if _TM.enabled:
                _emit_probe(
                    "service.deadline_miss",
                    elapsed_s=elapsed,
                    deadline_s=deadline_s,
                    attempts=1,
                )
            self._count("deadline", elapsed)
            raise DeadlineExceededError(
                f"deadline of {deadline_s:.6f}s exceeded after "
                f"{elapsed:.6f}s serving the index probe"
            )
        self._count("ok", elapsed)
        return elapsed

    def top_k(
        self,
        queries: Sequence[Sequence[int]],
        k: int,
        deadline_s: Optional[float] = None,
        nprobe: Optional[int] = None,
    ) -> ServiceResponse:
        """Routed batched top-k under one shared deadline.

        Raises:
            InvalidRequestError: Admission failure (queries, ``k``, or
                a non-positive deadline).
            DeadlineExceededError: The probe finished too late; the
                answer is withheld, as in the replicated service.
        """
        qs = self._admit_matrix(queries)
        if not 1 <= k <= self.n_rows:
            self._count("rejected")
            raise InvalidRequestError(
                f"k must be in [1, {self.n_rows}], got {k}"
            )
        deadline = self._resolve_deadline(deadline_s)
        start = self._clock()
        nprobe_eff = nprobe if nprobe is not None else self.nprobe
        # Inherits the active request/batch context: the routed probe
        # is attributable to the request ids it serves.
        with _span(
            "index.topk", queries=int(qs.shape[0]), k=k,
            nprobe=nprobe_eff,
        ):
            result = self.index.top_k(qs, k, nprobe=nprobe_eff)
        return ServiceResponse(
            rows=result.rows,
            distances=result.distances,
            **self._meta(result, self._finish(start, deadline)),
        )

    def search(
        self, query: Sequence[int], deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Serve one nearest-row query within a deadline."""
        q = self.validate_query(query)
        return self.search_batch(q[None, :], deadline_s=deadline_s)[0]

    def search_batch(
        self,
        queries: Sequence[Sequence[int]],
        deadline_s: Optional[float] = None,
        nprobe: Optional[int] = None,
    ) -> List[ServiceResponse]:
        """Serve a query batch; one nearest-row response per query."""
        qs = self._admit_matrix(queries)
        deadline = self._resolve_deadline(deadline_s)
        start = self._clock()
        nprobe_eff = nprobe if nprobe is not None else self.nprobe
        with _span(
            "index.search_batch", queries=int(qs.shape[0]),
            nprobe=nprobe_eff,
        ):
            result = self.index.top_k(qs, 1, nprobe=nprobe_eff)
        meta = self._meta(result, self._finish(start, deadline))
        return [
            ServiceResponse(best_row=row, best_distance=float(dist), **meta)
            for row, dist in zip(
                result.rows[:, 0].tolist(), result.distances[:, 0].tolist()
            )
        ]

    def _meta(self, result, elapsed: float) -> dict:
        """Response fields every index answer shares: healthy, and
        approximate exactly when fewer than all clusters were probed."""
        return dict(
            degraded=False,
            approximate=result.nprobe < self.index.n_clusters,
            shard_id="index",
            elapsed_s=elapsed,
        )
