"""The self-healing TD-AM: closed-loop BIST, repair, refresh, serve.

:class:`ResilientTDAMArray` wraps a
:class:`~repro.core.array.FastTDAMArray` (optionally carrying a hard
fault map through :class:`~repro.core.faults.FaultyTDAMArray`) and keeps
it serving correct nearest neighbors through its whole service life:

- **spare rows** are provisioned beyond the logical capacity and taken
  into use when BIST finds dead or unmaskable rows;
- **periodic BIST** (:class:`~repro.resilience.bist.MarchBIST`) runs
  every ``bist_interval`` searches (or on demand), with the stored data
  held in a shadow image and restored afterwards;
- **repairs** (:class:`~repro.resilience.repair.RepairEngine`) are
  applied automatically: stage columns masked, rows remapped to spares,
  and -- only when spares are exhausted -- rows retired;
- **retention drift** is tracked per physical row and cleared by
  rewrites; the :class:`~repro.resilience.refresh.RefreshScheduler`
  decides when a refresh is due, and every refresh spends endurance;
- **replica recalibration** re-derives the TDC decode constants whenever
  the measured replica delays drift past the sensing margin.

Search results are :class:`ResilientSearchResult` objects carrying
health metadata: similarity is rescaled to the surviving stage count and
``degraded`` is ``True`` whenever retired rows exist -- the array never
silently drops stored vectors from the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.array import FastTDAMArray, resolve_best_batch
from repro.core.config import TDAMConfig
from repro.core.faults import Fault, FaultyTDAMArray
from repro.core.topk import top_k_indices
from repro.core.replica import ReplicaCalibratedTDC, measure_replica
from repro.devices.nonideal import EnduranceModel, RetentionModel
from repro.devices.variation import VariationModel
from repro.resilience.bist import DiagnosisReport, MarchBIST
from repro.resilience.refresh import RefreshScheduler
from repro.resilience.repair import RepairEngine, RepairPlan
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.log import get_logger
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

_log = get_logger(__name__)

# Closed-loop health instruments (dormant unless telemetry is enabled).
_REG = _metrics.get_registry()
_BIST_RUNS = _REG.counter(
    "tdam_bist_runs_total", "Completed march BIST diagnoses"
)
_REPAIR_ACTIONS = _REG.counter(
    "tdam_repair_actions_total",
    "Repair actions applied, by kind",
    labels=("action",),
)
_REFRESHES = _REG.counter(
    "tdam_refreshes_total", "Full-array refresh rewrites"
)
_RECALIBRATIONS = _REG.counter(
    "tdam_recalibrations_total", "Replica TDC recalibrations"
)
_REFRESH_DEBT = _REG.gauge(
    "tdam_refresh_debt_ratio",
    "Oldest-row age over the scheduled refresh interval (>= 1 => overdue)",
)
_RETIRED_ROWS = _REG.gauge(
    "tdam_retired_rows", "Logical rows currently without a physical home"
)
_MASKED_STAGES = _REG.gauge(
    "tdam_masked_stages", "Stage columns currently masked out of the distance"
)


@dataclass(frozen=True)
class ResilientSearchResult:
    """A search outcome over *logical* rows, with health metadata.

    Attributes:
        hamming_distances: Per-logical-row decoded distances over the
            surviving stages; retired rows read the maximum
            (``n_effective_stages``) so they can never silently win.
        delays_s: Per-logical-row delays (retired rows: the controller
            timeout).
        best_row: Most similar *live* logical row (distance -> delay ->
            row resolution); ``-1`` when every row is retired.
        latency_s: Slowest physical chain (rows run in parallel).
        energy_j: Total physical search energy (spares included).
        n_stages: Physical chain length.
        n_effective_stages: Surviving stages after column masking -- the
            denominator for rescaled similarity.
        degraded: ``True`` when retired rows exist: the answer may omit
            stored vectors and must not be trusted silently.
        confidence: Fraction of the design's resolution still in
            service: ``(live rows / rows) * (surviving / total stages)``.
        retired_rows: Logical rows currently without a physical home.
        masked_stages: Stage columns excluded from the distance.
    """

    hamming_distances: np.ndarray
    delays_s: np.ndarray
    best_row: int
    latency_s: float
    energy_j: float
    n_stages: int
    n_effective_stages: int
    degraded: bool
    confidence: float
    retired_rows: Tuple[int, ...]
    masked_stages: Tuple[int, ...]

    @property
    def similarities(self) -> np.ndarray:
        """Match counts rescaled to the surviving stage count."""
        return self.n_effective_stages - self.hamming_distances

    @property
    def similarity_fractions(self) -> np.ndarray:
        """Similarities normalized to [0, 1] over surviving stages."""
        if self.n_effective_stages == 0:
            return np.zeros_like(self.hamming_distances, dtype=float)
        return self.similarities / float(self.n_effective_stages)


@dataclass(frozen=True)
class ResilientBatchSearchResult:
    """Batched search outcome over logical rows: Q queries at once.

    Per-query slices are bit-exact against the corresponding
    :class:`ResilientSearchResult` (:meth:`result` reconstructs it).
    The health metadata (masking, retirement, confidence) is
    query-independent -- it describes the array at the instant the batch
    was served -- so it is stored once, not per query.

    Attributes:
        hamming_distances: Per-logical-row decoded distances, (Q, n_rows).
        delays_s: Per-logical-row delays, (Q, n_rows).
        best_rows: Most similar live logical row per query (``-1`` when
            every row is retired), shape (Q,).
        latencies_s: Slowest physical chain per query, shape (Q,).
        energies_j: Total physical search energy per query, shape (Q,).
        n_stages: Physical chain length.
        n_effective_stages: Surviving stages after column masking.
        degraded: Whether retired rows existed while serving the batch.
        confidence: Surviving-resolution fraction (see
            :class:`ResilientSearchResult`).
        retired_rows: Logical rows without a physical home.
        masked_stages: Stage columns excluded from the distance.
    """

    hamming_distances: np.ndarray
    delays_s: np.ndarray
    best_rows: np.ndarray
    latencies_s: np.ndarray
    energies_j: np.ndarray
    n_stages: int
    n_effective_stages: int
    degraded: bool
    confidence: float
    retired_rows: Tuple[int, ...]
    masked_stages: Tuple[int, ...]

    def __len__(self) -> int:
        return self.hamming_distances.shape[0]

    @property
    def similarities(self) -> np.ndarray:
        """Match counts rescaled to the surviving stage count, (Q, n_rows)."""
        return self.n_effective_stages - self.hamming_distances

    def top_k(self, k: int) -> np.ndarray:
        """Per-query top-k *logical* row indices, shape (Q, k).

        The shared (distance, delay, row) ordering rule, with retired
        rows ranked strictly after every live row.  A retired row reads
        the maximum distance and the timeout delay, as a dead live row
        does, so it is ranked one past the maximum distance.
        """
        distances = self.hamming_distances
        if self.retired_rows:
            distances = distances.copy()
            distances[:, list(self.retired_rows)] = self.n_effective_stages + 1
        return top_k_indices(distances, k, delays_s=self.delays_s)

    def result(self, i: int) -> ResilientSearchResult:
        """The single-query :class:`ResilientSearchResult` of query ``i``."""
        if not -len(self) <= i < len(self):
            raise IndexError(
                f"query {i} out of range for batch of {len(self)}"
            )
        return ResilientSearchResult(
            hamming_distances=self.hamming_distances[i],
            delays_s=self.delays_s[i],
            best_row=int(self.best_rows[i]),
            latency_s=float(self.latencies_s[i]),
            energy_j=float(self.energies_j[i]),
            n_stages=self.n_stages,
            n_effective_stages=self.n_effective_stages,
            degraded=self.degraded,
            confidence=self.confidence,
            retired_rows=self.retired_rows,
            masked_stages=self.masked_stages,
        )


@dataclass(frozen=True)
class TopKResult:
    """Per-query top-k logical rows with the health flags that matter.

    Attributes:
        rows: Per-query top-k logical row indices, shape (Q, k).
        degraded: Whether retired rows existed while serving (the
            ranking may omit stored vectors).
        retired_rows: Logical rows without a physical home.
    """

    rows: np.ndarray
    degraded: bool
    retired_rows: Tuple[int, ...]


@dataclass(frozen=True)
class HealthReport:
    """Snapshot of the array's serviceability.

    Attributes:
        n_rows: Logical capacity.
        n_spares: Provisioned spare rows.
        spares_free: Healthy spares not yet consumed.
        masked_stages: Currently masked stage columns.
        retired_rows: Logical rows without a physical home.
        degraded: Whether searches currently carry the degraded flag.
        age_s: Oldest row data age since its last rewrite.
        refresh_due: Whether the scheduler demands a refresh now.
        refresh_interval_s: The scheduled refresh period.
        cycles_used: Worst-case program/erase cycles spent on any row.
        cycle_budget: Endurance budget for rewrites.
        searches_since_bist: Searches since the last self-test.
        last_bist: One-line summary of the last diagnosis (or ``None``).
    """

    n_rows: int
    n_spares: int
    spares_free: int
    masked_stages: Tuple[int, ...]
    retired_rows: Tuple[int, ...]
    degraded: bool
    age_s: float
    refresh_due: bool
    refresh_interval_s: float
    cycles_used: float
    cycle_budget: float
    searches_since_bist: int
    last_bist: Optional[str]


class ResilientTDAMArray:
    """A self-healing TD-AM array with spare rows and health tracking.

    Args:
        config: Design point.
        n_rows: Logical capacity (stored vectors served to the user).
        n_spares: Extra physical rows provisioned for repair.
        faults: Hard-fault map injected into the physical array
            (physical row indices -- spares can be faulty too).
        variation: Optional write-time V_TH variation model.
        retention: Drift model; defaults to the standard HfO2 numbers.
        endurance: Cycling model for the refresh budget.
        bist_interval: Run BIST-and-repair automatically every this many
            searches (``None`` disables the automatic loop).
        max_masked_stages: Stage-masking budget of the repair engine.
    """

    def __init__(
        self,
        config: TDAMConfig,
        n_rows: int,
        n_spares: int = 2,
        faults: Sequence[Fault] = (),
        variation: Optional[VariationModel] = None,
        retention: Optional[RetentionModel] = None,
        endurance: Optional[EnduranceModel] = None,
        bist_interval: Optional[int] = None,
        max_masked_stages: int = 2,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        if n_spares < 0:
            raise ValueError(f"n_spares must be >= 0, got {n_spares}")
        if bist_interval is not None and bist_interval < 1:
            raise ValueError(
                f"bist_interval must be >= 1, got {bist_interval}"
            )
        self.config = config
        self.n_rows = n_rows
        self.n_spares = n_spares
        total = n_rows + n_spares
        self._physical = FastTDAMArray(config, total, variation=variation)
        self._backing = FaultyTDAMArray(self._physical, faults)
        self.retention = retention or RetentionModel(params=config.fefet)
        self.scheduler = RefreshScheduler(
            config,
            retention=self.retention,
            endurance=endurance,
            turn_on_overdrive=self._physical.turn_on_overdrive,
        )
        self.bist = MarchBIST()
        self.engine = RepairEngine(max_masked_stages=max_masked_stages)
        self.bist_interval = bist_interval
        self._shadow = np.zeros((n_rows, config.n_stages), dtype=np.int64)
        # Logical -> physical row map, edited in place by repairs.
        self._map = np.arange(n_rows, dtype=np.int64)
        self._free_spares: List[int] = list(range(n_rows, total))
        self._masked: Tuple[int, ...] = ()
        # Logical rows without a physical home.
        self._retired_mask = np.zeros(n_rows, dtype=bool)
        self._row_age_s = np.zeros(total)
        self._cycles = np.zeros(total)
        # Write-time (variation) offsets, the baseline drift adds onto.
        self._base_off_a = np.zeros((total, config.n_stages))
        self._base_off_b = np.zeros((total, config.n_stages))
        self._searches_since_bist = 0
        self._last_diagnosis: Optional[DiagnosisReport] = None
        self._replica = ReplicaCalibratedTDC(
            config, measure_replica(self._physical.timing)
        )
        self._write_physical(
            np.arange(total),
            np.broadcast_to(
                np.zeros(config.n_stages, dtype=np.int64),
                (total, config.n_stages),
            ),
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _write_physical(self, phys, values: np.ndarray) -> None:
        """Program physical rows ``phys`` with ``values`` in one write.

        Variation is drawn in the order ``phys`` lists the rows, as a
        per-row write loop in that order would draw it.  Resets the
        rows' drift clocks and records their write-time offsets as the
        new drift baseline.
        """
        physical = self._physical
        if physical.variation is None:
            # A rewrite clears the drift accumulated on these rows.
            for offsets in (
                physical._off_a, physical._off_b,
                self._base_off_a, self._base_off_b,
            ):
                offsets[phys] = 0.0
            physical.invalidate_threshold_cache()
        physical._write_rows(phys, values)
        if physical.variation is not None:
            self._base_off_a[phys] = physical._off_a[phys]
            self._base_off_b[phys] = physical._off_b[phys]
        self._row_age_s[phys] = 0.0

    def write(self, row: int, vector: Sequence[int]) -> None:
        """Store one logical vector (kept in the shadow image too).

        A retired row's data lives only in the shadow until a repair
        finds it a physical home again.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(
                f"row {row} out of range [0, {self.n_rows - 1}]"
            )
        values = self._physical._validate_vector(vector)
        self._shadow[row] = values
        if not self._retired_mask[row]:
            phys = self._map[row]
            self._write_physical([phys], values[None, :])
            self._cycles[phys] += 1

    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Store every logical row from an (n_rows, n_stages) matrix.

        One write of the live rows, identical on every field to calling
        :meth:`write` for each row in order.
        """
        # The validated copy becomes the shadow image, and a fully live
        # array writes it without a gather: no image-sized transient.
        values = self._physical._validate_image(matrix, self.n_rows)
        self._shadow = values
        live = self._live_rows()
        if len(live) < self.n_rows:
            values = values[live]
        phys = self._map[live]
        self._write_physical(phys, values)
        self._cycles[phys] += 1

    def _live_rows(self) -> np.ndarray:
        """Logical rows with a physical home, ascending."""
        return np.flatnonzero(~self._retired_mask)

    def _retired_rows(self) -> Tuple[int, ...]:
        """Logical rows without a physical home, ascending."""
        return tuple(np.flatnonzero(self._retired_mask).tolist())

    # ------------------------------------------------------------------
    # Aging
    # ------------------------------------------------------------------
    def advance_time(self, dt_s: float) -> None:
        """Age every physical row by ``dt_s`` and apply retention drift.

        Drift is evaluated per row from its own time-since-rewrite, so a
        freshly refreshed row is pristine while its neighbors keep
        drifting.
        """
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        self._row_age_s += dt_s
        self._apply_drift()

    def _apply_drift(self) -> None:
        # Rows rewritten together share an age: one polarization
        # fraction per distinct age, then every cell's shift with the
        # arithmetic of RetentionModel.vth_shifts.
        ages, row_age = np.unique(self._row_age_s, return_inverse=True)
        frac = np.array(
            [self.retention.polarization_fraction(a) for a in ages.tolist()]
        )[row_age, None]
        center = self.retention.params.vth_center

        def shifts(programmed: np.ndarray) -> np.ndarray:
            return (center + (programmed - center) * frac) - programmed

        vth = np.array(self.config.vth_levels)
        stored = self._physical._stored
        levels = self.config.levels
        self._physical._off_a[:] = self._base_off_a + shifts(vth[stored])
        self._physical._off_b[:] = self._base_off_b + shifts(
            vth[levels - 1 - stored]
        )
        self._physical.invalidate_threshold_cache()

    @property
    def age_s(self) -> float:
        """Oldest row data age since its last rewrite (s)."""
        return float(self._row_age_s.max())

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def search(self, query: Sequence[int]) -> ResilientSearchResult:
        """Search over the logical rows, self-testing when due.

        A batch of one: :meth:`search_batch` on the validated query, so
        the BIST due-check runs once and the call counts as one search.
        """
        q = self._physical.encoding.validate_vector(query)
        return self.search_batch(q[None, :]).result(0)

    def search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> ResilientBatchSearchResult:
        """Batched logical search, bit-exact vs looping :meth:`search`.

        The automatic BIST due-check runs (at most) once, before the
        batch; the whole batch then counts toward
        ``searches_since_bist``.  A scalar :meth:`search` loop would
        instead re-check between queries -- with ``bist_interval`` set,
        prefer batches no longer than the interval.
        """
        if not _TM.enabled:
            return self._search_batch_impl(queries, chunk)
        with _trace.span(
            "resilience.search_batch",
            rows=self.n_rows,
            retired=int(self._retired_mask.sum()),
            masked=len(self._masked),
        ):
            return self._search_batch_impl(queries, chunk)

    def _self_test_if_due(self) -> None:
        """Run the automatic BIST-and-repair once ``bist_interval``
        searches have passed since the last self-test."""
        if (
            self.bist_interval is not None
            and self._searches_since_bist >= self.bist_interval
        ):
            self.self_test_and_repair()

    def _search_batch_impl(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> ResilientBatchSearchResult:
        self._self_test_if_due()
        counts = self._backing.mismatch_count_batch(
            queries, chunk=chunk, masked_stages=self._masked
        )
        self._searches_since_bist += counts.shape[0]
        raw = self._physical.batch_result_from_mismatch_counts(counts)
        return self._logical_view_batch(raw)

    def _is_pristine(self) -> bool:
        """Whether the physical array answers verbatim for logical rows.

        True only for a *pristine* array: no retired rows, no masked
        stages, no injected faults, the identity logical-to-physical
        map, and nominal physical timing.  Then logical distances and
        delays equal the physical ones over rows ``0..n_rows-1``
        verbatim, so :meth:`FastTDAMArray.top_k_batch` on that row
        subset is bit-identical to ranking the logical view.
        """
        return (
            not self._masked
            and not self._backing.faults
            and not self._retired_mask.any()
            and np.array_equal(self._map, np.arange(self.n_rows))
            and self._physical._timing_is_nominal()
        )

    def top_k_batch(
        self,
        queries: np.ndarray,
        k: int,
        chunk: Optional[int] = None,
    ) -> TopKResult:
        """Per-query top-k logical rows, served as cheaply as health allows.

        A pristine array (no faults, repairs, masking, or drift) is
        served by the physical array's :meth:`FastTDAMArray.top_k_batch`,
        which ranks exact counts; any degradation falls back to the
        full batched logical search and ranks its result.  Both produce
        the rows that ``search_batch(queries).top_k(k)`` would -- an
        exactness suite asserts it -- and the automatic BIST due-check
        still runs.
        """
        if not 1 <= k <= self.n_rows:
            raise ValueError(
                f"k must be in [1, {self.n_rows}], got {k}"
            )
        if not _TM.enabled:
            return self._top_k_batch_impl(queries, k, chunk)
        with _trace.span(
            "resilience.top_k_batch",
            rows=self.n_rows,
            retired=int(self._retired_mask.sum()),
            masked=len(self._masked),
        ):
            return self._top_k_batch_impl(queries, k, chunk)

    def _top_k_batch_impl(
        self, queries: np.ndarray, k: int, chunk: Optional[int]
    ) -> TopKResult:
        self._self_test_if_due()
        if self._is_pristine():
            rows = self._physical.top_k_batch(
                queries,
                k,
                rows=np.arange(self.n_rows),
                chunk=chunk,
            )
            self._searches_since_bist += rows.shape[0]
            return TopKResult(rows=rows, degraded=False, retired_rows=())
        batch = self._search_batch_impl(queries, chunk)
        return TopKResult(
            rows=batch.top_k(k),
            degraded=batch.degraded,
            retired_rows=batch.retired_rows,
        )

    def _logical_view_batch(self, raw) -> ResilientBatchSearchResult:
        n_eff = self.config.n_stages - len(self._masked)
        # Each logical row reads its physical home; a retired row's
        # stale home is overwritten with the maximum distance and the
        # controller timeout.
        distances = np.take(raw.hamming_distances, self._map, axis=1)
        np.minimum(distances, n_eff, out=distances)
        delays = np.take(raw.delays_s, self._map, axis=1)
        live = self._live_rows()
        if live.size == self.n_rows:
            best = resolve_best_batch(distances, delays)
        else:
            distances[:, self._retired_mask] = n_eff
            delays[:, self._retired_mask] = self._physical.timing.chain_delay(
                self.config.n_stages
            )
            best = (
                live[resolve_best_batch(distances[:, live], delays[:, live])]
                if live.size
                else np.full(len(distances), -1, dtype=np.int64)
            )
        live_fraction = live.size / self.n_rows
        stage_fraction = n_eff / self.config.n_stages
        return ResilientBatchSearchResult(
            hamming_distances=distances,
            delays_s=delays,
            best_rows=best,
            latencies_s=raw.latencies_s,
            energies_j=raw.energies_j,
            n_stages=self.config.n_stages,
            n_effective_stages=n_eff,
            degraded=live.size < self.n_rows,
            confidence=live_fraction * stage_fraction,
            retired_rows=self._retired_rows(),
            masked_stages=self._masked,
        )

    # ------------------------------------------------------------------
    # BIST and repair
    # ------------------------------------------------------------------
    def run_bist(self) -> DiagnosisReport:
        """Run the destructive march test and restore the stored data.

        The march rewrites every physical row (clearing drift, like any
        rewrite), diagnoses, and the shadow image is written back.
        """
        with _trace.span("resilience.bist", rows=self.n_rows):
            if self._physical.variation is None:
                self._physical._off_a[:] = 0.0
                self._physical._off_b[:] = 0.0
                self._physical.invalidate_threshold_cache()
            self._row_age_s[:] = 0.0
            diagnosis = self.bist.run(self._backing)
            # Endurance accounting: march backgrounds plus the restore.
            self._cycles += diagnosis.n_writes // diagnosis.n_rows + 1
            self._restore_data()
        self._searches_since_bist = 0
        self._last_diagnosis = diagnosis
        if _TM.enabled:
            _BIST_RUNS.inc()
            _emit_probe(
                "resilience.bist",
                n_rows=diagnosis.n_rows,
                dead_rows=len(diagnosis.dead_rows),
                faulty_cells=len(diagnosis.faulty_cells),
                n_writes=diagnosis.n_writes,
            )
            _log.info(
                "BIST complete",
                extra={
                    "dead_rows": len(diagnosis.dead_rows),
                    "faulty_cells": len(diagnosis.faulty_cells),
                },
            )
        return diagnosis

    def _restore_data(self) -> None:
        """Rewrite every physical row in one write: each live logical
        row's shadow onto its physical home, in logical order, then
        zeros onto the rows holding no data, in physical order."""
        live = self._live_rows()
        mapped = self._map[live]
        total = len(self._row_age_s)
        unmapped = np.setdiff1d(np.arange(total), mapped)
        values = np.zeros((total, self.config.n_stages), dtype=np.int64)
        values[:len(live)] = self._shadow[live]
        self._write_physical(np.concatenate([mapped, unmapped]), values)

    def apply_repairs(
        self, diagnosis: Optional[DiagnosisReport] = None
    ) -> RepairPlan:
        """Translate a diagnosis into masking / remapping / retirement.

        Remapped rows are rewritten onto their spare from the shadow
        image immediately; retirement only happens when the healthy
        spare pool is empty.
        """
        if diagnosis is None:
            diagnosis = self._last_diagnosis or self.run_bist()
        with _trace.span("resilience.repair", rows=self.n_rows):
            live = self._live_rows()
            data_rows = self._map[live]
            plan = self.engine.plan(
                diagnosis,
                data_rows=data_rows.tolist(),
                spare_rows=self._free_spares,
            )
            self._masked = plan.masked_stages
            # The logical row each data-holding physical row serves.
            owner = np.empty(len(self._row_age_s), dtype=np.int64)
            owner[data_rows] = live
            for old_phys, spare in plan.row_remap.items():
                r = owner[old_phys]
                self._map[r] = spare
                self._free_spares.remove(spare)
                self._write_physical([spare], self._shadow[r][None, :])
                self._cycles[spare] += 1
            self._retired_mask[owner[list(plan.retired_rows)]] = True
        if _TM.enabled:
            if plan.masked_stages:
                _REPAIR_ACTIONS.inc(
                    len(plan.masked_stages), action="masked"
                )
            if plan.row_remap:
                _REPAIR_ACTIONS.inc(len(plan.row_remap), action="remapped")
            if plan.retired_rows:
                _REPAIR_ACTIONS.inc(
                    len(plan.retired_rows), action="retired"
                )
            _MASKED_STAGES.set(float(len(self._masked)))
            _RETIRED_ROWS.set(float(self._retired_mask.sum()))
            _emit_probe(
                "resilience.repair",
                masked_stages=len(plan.masked_stages),
                remapped_rows=len(plan.row_remap),
                retired_rows=len(plan.retired_rows),
            )
            if plan.masked_stages or plan.row_remap or plan.retired_rows:
                _log.info(
                    "repair plan applied",
                    extra={
                        "masked_stages": len(plan.masked_stages),
                        "remapped_rows": len(plan.row_remap),
                        "retired_rows": len(plan.retired_rows),
                    },
                )
        return plan

    def self_test_and_repair(self) -> RepairPlan:
        """The closed loop: BIST, repair, recalibrate; returns the plan."""
        diagnosis = self.run_bist()
        plan = self.apply_repairs(diagnosis)
        self.check_calibration()
        return plan

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    @property
    def refresh_due(self) -> bool:
        """Whether the oldest row's drift demands a rewrite now."""
        return self.scheduler.due(self.age_s)

    def refresh(self) -> int:
        """Rewrite every physical row from the shadow image.

        Clears accumulated drift, spends one endurance cycle per row,
        and re-derives the replica calibration.  Returns the number of
        rows rewritten.
        """
        rows = len(self._row_age_s)
        enabled = _TM.enabled
        if enabled:
            # Capture the debt before _restore_data() clears the drift
            # clocks.
            interval = self.scheduler.plan().interval_s
            debt = self.age_s / interval if interval > 0 else 0.0
        with _trace.span("resilience.refresh", rows=rows):
            self._restore_data()
            self._cycles += 1
            self.check_calibration()
        if enabled:
            _REFRESHES.inc()
            _REFRESH_DEBT.set(debt)
            _emit_probe(
                "resilience.refresh", rows_rewritten=rows, refresh_debt=debt
            )
            _log.debug(
                "refresh complete",
                extra={"rows": rows, "refresh_debt": debt},
            )
        return rows

    def maybe_refresh(self) -> bool:
        """Refresh if (and only if) the scheduler says it is due."""
        if self.refresh_due:
            self.refresh()
            return True
        return False

    # ------------------------------------------------------------------
    # Replica recalibration
    # ------------------------------------------------------------------
    def check_calibration(self, timing=None) -> bool:
        """Recalibrate the replica TDC if conditions have drifted.

        Measures the replica chain under ``timing`` (the *current*
        operating conditions; defaults to the array's own model) and
        recalibrates when the worst-case full-chain decode error of the
        stale constants exceeds the half-LSB sensing margin.  Returns
        whether a recalibration happened.
        """
        timing = timing or self._physical.timing
        fresh = measure_replica(timing)
        stale = self._replica.measurement
        n = self.config.n_stages
        d_c_fresh = (fresh.d_k_s - fresh.d_zero_s) / fresh.k
        error = abs(fresh.d_zero_s - stale.d_zero_s) + n * abs(
            d_c_fresh - self._replica.d_c_s
        )
        if error > self._physical.tdc.sensing_margin_s():
            self._replica.recalibrate(fresh)
            if _TM.enabled:
                _RECALIBRATIONS.inc()
                _emit_probe("resilience.recalibrated")
                _log.debug(
                    "replica TDC recalibrated",
                    extra={"decode_error_s": error},
                )
            return True
        return False

    @property
    def replica_tdc(self) -> ReplicaCalibratedTDC:
        """The replica-tracked decoder (for drift-aware decoding)."""
        return self._replica

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the array currently serves in degraded mode."""
        return bool(self._retired_mask.any())

    def health_report(self) -> HealthReport:
        """Snapshot of spares, masking, drift age, and budgets."""
        return HealthReport(
            n_rows=self.n_rows,
            n_spares=self.n_spares,
            spares_free=len(self._free_spares),
            masked_stages=self._masked,
            retired_rows=self._retired_rows(),
            degraded=self.degraded,
            age_s=self.age_s,
            refresh_due=self.refresh_due,
            refresh_interval_s=self.scheduler.plan().interval_s,
            cycles_used=float(self._cycles.max()),
            cycle_budget=self.scheduler.cycle_budget(),
            searches_since_bist=self._searches_since_bist,
            last_bist=(
                self._last_diagnosis.summary()
                if self._last_diagnosis is not None
                else None
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ResilientTDAMArray({self.n_rows}+{self.n_spares} rows x "
            f"{self.config.n_stages} stages, "
            f"{int(self._retired_mask.sum())} retired, "
            f"{len(self._masked)} masked stages)"
        )
