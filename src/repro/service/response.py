"""The serving layer's one answer type and its honesty contract.

Every backend answers with a :class:`ServiceResponse`: the replicated
:class:`~repro.service.server.TDAMSearchService`, the partitioned
scatter/gather service, the clustered-index adapter, the encode
front end, and the remote client, which decodes it off the wire.  A
search answer carries ``best_row``/``best_distance``; a top-k answer
carries ``rows`` (and, from the index, ``distances``).

The honesty contract has three rules:

1. ``degraded=False`` promises the exact answer;
2. ``approximate=True`` happens only by request (an index probing
   fewer than all of its clusters), never because something failed;
3. ``coverage < 1`` -- stored rows that were not searched -- means
   ``degraded=True``.

:meth:`ServiceResponse.check_honesty` states what one answer can show
about them and runs whenever a response is built, in process or
decoded off the wire.  Whether an answer that claims to be exact *is*
exact needs an oracle; the load and chaos harnesses hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.resilience.resilient import ResilientSearchResult

__all__ = ["ServiceResponse"]


@dataclass(frozen=True)
class ServiceResponse:
    """One backend's answer to a search or top-k request.

    Attributes:
        degraded: ``True`` whenever the answer may be worse than asked
            for (retired rows, the degraded fallback path, skipped
            partitions).  ``False`` promises the exact answer.
        shard_id: The replica (or ``"index"``) that produced it.
        attempts: Shard attempts made (1 = first try succeeded).
        retries: Retries among those attempts.
        elapsed_s: Request latency on the service clock.
        best_row: Search only: the most similar stored row (``-1`` when
            no searched row is live).
        best_distance: Search only: its decoded distance (``-1`` with
            no winner).
        result: Search only, replicated service only: the shard-level
            result (distances, delays, modeled latency and energy).
            Never crosses the wire.
        rows: Top-k only: row ids best first, shape (Q, k) for a batch
            or (k,) for one query; ``-1`` pads rows that could not be
            reached.
        distances: Top-k only, index only: the decoded distances of
            ``rows`` (``-1`` on pads).
        coverage: Fraction of stored rows actually searched.
        partitions_skipped: Partitions that could not answer.
        approximate: Whether the client asked for a partial probe.
    """

    degraded: bool
    shard_id: str = ""
    attempts: int = 1
    retries: int = 0
    elapsed_s: float = 0.0
    best_row: Optional[int] = None
    best_distance: Optional[float] = None
    result: Optional[ResilientSearchResult] = field(
        default=None, repr=False, compare=False
    )
    rows: Optional[np.ndarray] = None
    distances: Optional[np.ndarray] = None
    coverage: float = 1.0
    partitions_skipped: Tuple[str, ...] = ()
    approximate: bool = False

    def __post_init__(self) -> None:
        self.check_honesty()

    @property
    def outcome(self) -> str:
        """``"degraded"`` or ``"ok"``."""
        return "degraded" if self.degraded else "ok"

    def check_honesty(self) -> None:
        """Raise ``ValueError`` if the answer breaks the contract.

        An answer must be ``degraded`` when it searched less than the
        whole corpus (``coverage < 1`` or a skipped partition), and a
        ``-1`` row -- no winner, or a top-k pad -- is allowed only in a
        ``degraded`` or ``approximate`` answer.
        """
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage {self.coverage} outside [0, 1]")
        if self.degraded:
            return
        if self.coverage < 1.0 or self.partitions_skipped:
            raise ValueError(
                f"coverage {self.coverage} with partitions skipped "
                f"{self.partitions_skipped} must be flagged degraded"
            )
        if self.approximate:
            return
        if (self.best_row is not None and self.best_row < 0) or (
            self.rows is not None and (np.asarray(self.rows) < 0).any()
        ):
            raise ValueError(
                "a -1 row must be flagged degraded or approximate"
            )

    def for_query(self, i: int) -> ServiceResponse:
        """Query ``i``'s answer out of a batched top-k response."""
        return replace(
            self,
            rows=self.rows[i],
            distances=None if self.distances is None else self.distances[i],
        )
