"""Fault injection: hard defects in the TD-AM and their search impact.

Complements the parametric variation of Fig. 6 with the *hard* fault
classes an array test engineer cares about:

- ``stuck_mismatch`` -- a cell whose MN always discharges (e.g. an F_A
  stuck in its lowest-V_TH state or a shorted match node): its stage
  always adds ``d_C``, inflating every distance through that row by one;
- ``stuck_match`` -- a cell that can never discharge MN (open FeFET
  drain, stuck precharge): mismatches at that position go uncounted;
- ``dead_row`` -- a whole chain out of commission (broken delay line).

:class:`FaultInjector` applies a seeded fault map to a
:class:`~repro.core.array.FastTDAMArray` and
:func:`search_error_statistics` measures the induced Hamming-distance
error -- the basis for yield/repair analyses (row sparing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.array import BatchSearchResult, FastTDAMArray, SearchResult
from repro.core.config import TDAMConfig


class FaultType(enum.Enum):
    """Supported hard-fault classes."""

    STUCK_MISMATCH = "stuck_mismatch"
    STUCK_MATCH = "stuck_match"
    DEAD_ROW = "dead_row"


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Attributes:
        kind: The fault class.
        row: Affected row.
        stage: Affected stage (ignored for DEAD_ROW).
    """

    kind: FaultType
    row: int
    stage: int = 0


class FaultyTDAMArray:
    """A :class:`FastTDAMArray` wrapper applying a hard-fault map.

    Args:
        array: The fault-free array (already constructed; writes go
            through this wrapper so the fault map survives re-writes).
        faults: The injected faults.
    """

    def __init__(self, array: FastTDAMArray, faults: Sequence[Fault]) -> None:
        self.array = array
        self.faults = list(faults)
        for fault in self.faults:
            if not 0 <= fault.row < array.n_rows:
                raise ValueError(f"fault row {fault.row} out of range")
            if fault.kind != FaultType.DEAD_ROW and not (
                0 <= fault.stage < array.config.n_stages
            ):
                raise ValueError(f"fault stage {fault.stage} out of range")

    def write(self, row: int, vector) -> None:
        self.array.write(row, vector)

    def write_all(self, matrix) -> None:
        self.array.write_all(matrix)

    @property
    def n_rows(self) -> int:
        """Rows of the wrapped array (interface symmetry)."""
        return self.array.n_rows

    @property
    def config(self) -> TDAMConfig:
        """Design point of the wrapped array (interface symmetry)."""
        return self.array.config

    def mismatch_count_batch(
        self,
        queries: np.ndarray,
        chunk: Optional[int] = None,
        masked_stages: Sequence[int] = (),
    ) -> np.ndarray:
        """Faulted per-row mismatch counts of a query batch, shape (Q, M).

        The wrapped array's clean counts plus exact per-cell corrections
        in the fault map's override order: a stuck cell overrides the
        device-level decision and takes its last fault's value; a dead
        row reads all-mismatch (its chain never produces an edge, so the
        controller times out at the maximum distance) and dominates any
        cell fault on it; masked columns clear last.  That costs
        O(Q * (M * |masked| + faults)) beyond the clean count, not a
        (Q, M, N) fault tensor, and a pristine map (no fault, no masked
        column) returns the clean count as it is.

        Args:
            queries: Query levels, shape (Q, n_stages).
            chunk: Queries per kernel chunk; ``None`` auto-sizes.
            masked_stages: Stage columns forced to *match* after the
                fault overrides (the resilient array's column masking;
                applied last, so it silences stuck-mismatch cells and
                trims dead-row timeouts exactly like clearing those
                columns of the faulted decisions).
        """
        counts = self.array.mismatch_count_batch(queries, chunk=chunk)
        if not self.faults and len(masked_stages) == 0:
            return counts
        n_rows, n_stages = self.n_rows, self.config.n_stages
        masked = np.unique(np.arange(n_stages)[list(masked_stages)])
        stuck: Dict[Tuple[int, int], int] = {}
        dead: List[int] = []
        mismatch = FaultType.STUCK_MISMATCH
        for fault in self.faults:
            if fault.kind == FaultType.DEAD_ROW:
                dead.append(fault.row)
            else:
                stuck[fault.row, fault.stage] = int(fault.kind == mismatch)
        # A cell in a masked column is cleared whatever its fault says,
        # and a dead row is overwritten below.
        cells = [
            (row, stage, value)
            for (row, stage), value in stuck.items()
            if stage not in masked and row not in dead
        ]
        if cells or masked.size:
            q = self.array._validate_queries(queries)
        if cells:
            rows, stages, values = (np.array(c) for c in zip(*cells))
            clean = self.array._cell_mismatches(q, rows, stages)
            np.add.at(counts, (slice(None), rows), values - clean)
        if masked.size:
            counts -= self.array._cell_mismatches(
                q, np.arange(n_rows)[:, None], masked[None, :]
            ).sum(axis=2)
        if dead:
            counts[:, dead] = n_stages - masked.size
        return counts

    def search(self, query) -> SearchResult:
        """Search with the fault map applied: a batch of one."""
        q = self.array._validate_query(query)
        return self.search_batch(q[None, :]).result(0)

    def search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched faulty search over the faulted counts.

        Delays, decode, ordering and energy come from
        :meth:`FastTDAMArray.batch_result_from_mismatch_counts` with
        nominal ``d_C`` delays, so the faulty path shares the clean
        path's semantics.
        """
        return self.array.batch_result_from_mismatch_counts(
            self.mismatch_count_batch(queries, chunk=chunk)
        )

    def fault_free_search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched :meth:`fault_free_search` (nominal-``d_C`` reference)."""
        return self.array.batch_result_from_mismatch_counts(
            self.array.mismatch_count_batch(queries, chunk=chunk)
        )

    def fault_free_search(self, query) -> SearchResult:
        """The same decode path with the fault map removed.

        The reference for :func:`search_error_statistics`: identical
        delay model, TDC decode, and distance -> delay -> row tie-break
        resolution as :meth:`search`, differing only in the faults.  A
        batch of one, like :meth:`search`.
        """
        q = self.array._validate_query(query)
        return self.fault_free_search_batch(q[None, :]).result(0)

    def ideal_hamming(self, query) -> np.ndarray:
        return self.array.ideal_hamming(query)


class FaultInjector:
    """Draws seeded random fault maps.

    Args:
        config: Design point (stage count).
        n_rows: Array rows.
        seed: Fault-placement seed.
    """

    def __init__(self, config: TDAMConfig, n_rows: int,
                 seed: Optional[int] = 0) -> None:
        self.config = config
        self.n_rows = n_rows
        self._rng = np.random.default_rng(seed)

    def draw(
        self,
        n_stuck_mismatch: int = 0,
        n_stuck_match: int = 0,
        n_dead_rows: int = 0,
    ) -> List[Fault]:
        """A random non-overlapping fault map of the requested counts."""
        total_cells = self.n_rows * self.config.n_stages
        n_cell_faults = n_stuck_mismatch + n_stuck_match
        if n_cell_faults > total_cells:
            raise ValueError("more cell faults than cells")
        if n_dead_rows > self.n_rows:
            raise ValueError("more dead rows than rows")
        cells = self._rng.choice(total_cells, size=n_cell_faults, replace=False)
        faults: List[Fault] = []
        for i, cell in enumerate(cells):
            kind = (
                FaultType.STUCK_MISMATCH
                if i < n_stuck_mismatch
                else FaultType.STUCK_MATCH
            )
            faults.append(
                Fault(
                    kind=kind,
                    row=int(cell) // self.config.n_stages,
                    stage=int(cell) % self.config.n_stages,
                )
            )
        rows = self._rng.choice(self.n_rows, size=n_dead_rows, replace=False)
        faults.extend(Fault(kind=FaultType.DEAD_ROW, row=int(r)) for r in rows)
        return faults


def search_error_statistics(
    faulty: FaultyTDAMArray,
    queries: np.ndarray,
) -> Dict[str, float]:
    """Distance-error statistics of a faulty array over a query batch.

    Returns:
        ``max_abs_error``, ``mean_abs_error``, ``wrong_best_fraction`` --
        the last one measured against the fault-free array's best row,
        computed through :meth:`FaultyTDAMArray.fault_free_search` so the
        reference uses the *same* distance -> delay -> row tie-break
        resolution as ``search()`` (a row-order-only reference would
        count tie resolutions as wrong bests and inflate the fraction).
    """
    queries = faulty.array._validate_queries(queries)
    faulted = faulty.search_batch(queries)
    clean = faulty.fault_free_search_batch(queries)
    ideal = (
        faulty.array._stored[None, :, :] != queries[:, None, :]
    ).sum(axis=2)
    errors = np.abs(faulted.hamming_distances - ideal).astype(float)
    wrong_best = int((faulted.best_rows != clean.best_rows).sum())
    return {
        "max_abs_error": float(errors.max()),
        "mean_abs_error": float(errors.mean()),
        "wrong_best_fraction": wrong_best / len(queries),
    }
