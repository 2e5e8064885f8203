"""The TD-AM array: parallel similarity computation (Fig. 3(a)).

``M`` delay chains (rows) share vertical search lines, so one query is
compared against every stored vector concurrently.  Two implementations
are provided with the same search semantics:

- :class:`TDAMArray` -- device-accurate: every cell holds two programmed
  :class:`~repro.devices.fefet.FeFET` models, and write-time variation is
  drawn per device.  Use for circuit-fidelity experiments.
- :class:`FastTDAMArray` -- vectorized: stored levels and V_TH offsets are
  numpy arrays and the conduction decision uses the calibrated switch-on
  overdrive of the same FeFET channel model.  Use for Monte Carlo and the
  HDC-scale workloads (Fig. 6-8).

An integration test asserts the two agree on match decisions and delays.

The fast array additionally serves **query batches**:
:meth:`FastTDAMArray.search_batch` counts mismatches on one packed
bit-plane popcount kernel in bounded-memory query chunks and assembles a
:class:`BatchSearchResult` through array-valued TDC decode
(:meth:`~repro.core.sensing.CounterTDC.count_array`) and a precomputed
energy table (:meth:`~repro.core.energy.TimingEnergyModel.search_energy_table`).
It is the one search path: :meth:`FastTDAMArray.search` is a batch of
one.  Its reference is ``fast_search`` in ``tests/oracles.py``, the
per-cell scalar arithmetic ``search`` ran before it became a batch of
one, and each per-query slice is bit-exact against it -- the batch
engine exists for throughput, not different semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitplane import (
    _count_dtype,
    pack_bit_planes,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    packed_xor_counts,
)
from repro.core.chain import ChainResult, DelayChain
from repro.core.config import TDAMConfig
from repro.core.encoding import LevelEncoding, validate_levels
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import CounterTDC
from repro.core.topk import top_k_indices
from repro.devices.fefet import FeFET, FeFETParams
from repro.devices.variation import VariationModel
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.profile import probe_active as _probe_active
from repro.telemetry.state import STATE as _TM

# Telemetry instruments (dormant unless repro.telemetry is enabled; the
# disabled fast path in the search kernels is a single boolean check).
_REG = _metrics.get_registry()
_SEARCHES = _REG.counter(
    "tdam_searches_total",
    "Completed array search operations",
    labels=("mode",),
)
_QUERIES = _REG.counter(
    "tdam_queries_total",
    "Queries served across all searches",
    labels=("mode",),
)
_WRITES = _REG.counter(
    "tdam_write_all_total", "Full-array write_all programming operations"
)
_SEARCH_LATENCY = _REG.histogram(
    "tdam_search_latency_seconds",
    "Modeled array search latency (slowest chain) per search",
)
_CACHE_EVENTS = _REG.counter(
    "tdam_threshold_cache_events_total",
    "Threshold/level-table cache lifecycle events",
    labels=("op",),
)

#: Transient-tensor memory budget of the batched kernels (bytes): the
#: auto-sized query chunk bounds what each kernel materializes per
#: chunk to roughly this footprint.
QUERY_CHUNK_BUDGET_BYTES = 32 * 1024 * 1024
#: Floor of the auto-sized chunk -- tiny chunks drown in loop overhead.
MIN_QUERY_CHUNK = 8
#: Ceiling of the auto-sized chunk -- beyond this the numpy calls are
#: already large and bigger transients only pressure the caches.
MAX_QUERY_CHUNK = 1024


def _budget_chunk(
    per_query_bytes: int, budget_bytes: int = QUERY_CHUNK_BUDGET_BYTES
) -> int:
    """Queries whose transients fit ``budget_bytes``, clamped to
    [:data:`MIN_QUERY_CHUNK`, :data:`MAX_QUERY_CHUNK`]."""
    chunk = budget_bytes // per_query_bytes
    return int(min(MAX_QUERY_CHUNK, max(MIN_QUERY_CHUNK, chunk)))


def resolve_query_chunk(
    n_rows: int,
    n_stages: int,
    budget_bytes: int = QUERY_CHUNK_BUDGET_BYTES,
) -> int:
    """Auto-size the query chunk of a float-gather kernel.

    Chooses the number of queries per materialized ``(chunk, M, N)``
    float tensor so the transient stays near ``budget_bytes``: huge
    arrays get small chunks instead of blowing up memory, tiny arrays
    get large chunks instead of under-filling the vector units.  The
    result is clamped to [:data:`MIN_QUERY_CHUNK`,
    :data:`MAX_QUERY_CHUNK`].  Chunking never changes results -- every
    kernel is bit-exact for any chunk -- so this is purely a
    memory/throughput trade.  The packed count kernel and the clustered
    index's tiles apply the same budget to their own, far smaller,
    per-query transients.

    Args:
        n_rows: Rows the kernel will scan.
        n_stages: Stages per row.
        budget_bytes: Transient-tensor memory budget.
    """
    if n_rows < 1 or n_stages < 1:
        raise ValueError(
            f"n_rows and n_stages must be >= 1, got {n_rows}, {n_stages}"
        )
    return _budget_chunk(n_rows * n_stages * 8, budget_bytes)


def _resolve_chunk_arg(chunk: Optional[int], n_rows: int, n_stages: int) -> int:
    """Validate an explicit chunk or auto-size a ``None`` one."""
    if chunk is None:
        return resolve_query_chunk(n_rows, n_stages)
    _check_chunk(chunk)
    return chunk


def _check_chunk(chunk: Optional[int]) -> None:
    """Reject an explicit chunk below one query."""
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")

#: Memoized turn-on overdrives, keyed by the config fields the bisection
#: actually depends on.  Monte Carlo builds thousands of arrays from the
#: same design point; without the memo each construction re-runs a
#: 60-iteration bisection of the channel model.
_TURN_ON_MEMO: Dict[Tuple[FeFETParams, float], float] = {}

# Sentinel marking the XOR fast-path cache as not-yet-computed (None is
# a valid cached value: "tables are not pure level inequality").
_XOR_UNSET = object()


def calibrate_turn_on_overdrive(config: TDAMConfig) -> float:
    """Gate overdrive (V) at which the FeFET reaches the ON current.

    Bisects the channel model at V_DS = V_DD; this ties the fast array's
    switching decision to the same device physics as the device-accurate
    array.  The result depends only on the FeFET parameters and the
    supply, so it is memoized on ``(config.fefet, config.vdd)`` --
    repeated array constructions (Monte Carlo trials, HDC tiles) reuse
    the first calibration bit-for-bit.
    """
    key = (config.fefet, config.vdd)
    cached = _TURN_ON_MEMO.get(key)
    if cached is not None:
        return cached
    from repro.core.cell import ON_CURRENT_A

    probe = FeFET(config.fefet, rng=np.random.default_rng(0))
    probe.program_vth(config.fefet.vth_center)
    vth = probe.vth
    lo, hi = -0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(probe.ids(vth + mid, config.vdd)) >= ON_CURRENT_A:
            hi = mid
        else:
            lo = mid
    result = 0.5 * (lo + hi)
    _TURN_ON_MEMO[key] = result
    return result


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one parallel search over the whole array.

    Attributes:
        delays_s: Per-row total 2-step delay (the raw TD output).
        counts: Per-row TDC counter codes.
        hamming_distances: Per-row decoded mismatch counts.
        best_row: Row index of the most similar stored vector (smallest
            decoded distance; delay breaks ties, then row order).
        latency_s: Array search latency -- the slowest chain, since rows
            run in parallel.
        energy_j: Total search energy over all rows.
        n_stages: Chain length, for similarity normalization.
    """

    delays_s: np.ndarray
    counts: np.ndarray
    hamming_distances: np.ndarray
    best_row: int
    latency_s: float
    energy_j: float
    n_stages: int

    @property
    def similarities(self) -> np.ndarray:
        """Match counts (N - Hamming distance) per row."""
        return self.n_stages - self.hamming_distances

    def top_k(self, k: int) -> np.ndarray:
        """Row indices of the k most similar stored vectors.

        Ordered by decoded distance, with delay and then row index as
        tie-breakers (the same resolution rule as ``best_row``) -- the
        k-NN primitive for HDC and retrieval workloads.
        """
        return top_k_indices(
            self.hamming_distances, k, delays_s=self.delays_s
        )


@dataclass(frozen=True)
class BatchSearchResult:
    """Outcome of one batched search: Q queries against all M rows.

    Every per-query slice is bit-exact against the corresponding
    single-query :class:`SearchResult` (:meth:`result` reconstructs it);
    the batch object simply keeps the (Q, M) tensors together so
    downstream consumers stay vectorized.

    Attributes:
        delays_s: Per-query per-row 2-step delays, shape (Q, M).
        counts: TDC counter codes, shape (Q, M).
        hamming_distances: Decoded mismatch counts, shape (Q, M).
        best_rows: Winning row per query (distance -> delay -> row
            resolution), shape (Q,).
        latencies_s: Slowest chain per query, shape (Q,).
        energies_j: Total search energy per query, shape (Q,).
        n_stages: Chain length, for similarity normalization.
    """

    delays_s: np.ndarray
    counts: np.ndarray
    hamming_distances: np.ndarray
    best_rows: np.ndarray
    latencies_s: np.ndarray
    energies_j: np.ndarray
    n_stages: int

    def __len__(self) -> int:
        return self.delays_s.shape[0]

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.delays_s.shape[0]

    @property
    def similarities(self) -> np.ndarray:
        """Match counts (N - Hamming distance), shape (Q, M)."""
        return self.n_stages - self.hamming_distances

    def top_k(self, k: int) -> np.ndarray:
        """Per-query top-k row indices, shape (Q, k).

        Same ordering rule as :meth:`SearchResult.top_k` (distance, then
        delay, then row index).
        """
        return top_k_indices(
            self.hamming_distances, k, delays_s=self.delays_s
        )

    def result(self, i: int) -> SearchResult:
        """The single-query :class:`SearchResult` view of query ``i``."""
        if not -len(self) <= i < len(self):
            raise IndexError(f"query {i} out of range for batch of {len(self)}")
        return SearchResult(
            delays_s=self.delays_s[i],
            counts=self.counts[i],
            hamming_distances=self.hamming_distances[i],
            best_row=int(self.best_rows[i]),
            latency_s=float(self.latencies_s[i]),
            energy_j=float(self.energies_j[i]),
            n_stages=self.n_stages,
        )


def _record_search_telemetry(
    array: "FastTDAMArray", result: "BatchSearchResult"
) -> None:
    """Metrics + probe emission for one batched search; enabled-only.

    The payload carries the aggregate mismatch spread so a probe hook
    sees the per-stage similarity statistics without re-deriving them.
    The payload, a scan of every distance, is built only when a hook
    listens.
    """
    n_queries = len(result.latencies_s)
    _SEARCHES.inc(mode="batch")
    _QUERIES.inc(n_queries, mode="batch")
    latency = float(result.latencies_s.max())
    energy = float(result.energies_j.sum())
    _SEARCH_LATENCY.observe(latency)
    if not _probe_active("array.search_batch"):
        return
    distances = result.hamming_distances
    _emit_probe(
        "array.search_batch",
        rows=array.n_rows,
        stages=array.config.n_stages,
        queries=n_queries,
        min_mismatches=int(distances.min()),
        max_mismatches=int(distances.max()),
        latency_s=latency,
        energy_j=energy,
    )


def resolve_best_batch(distances: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Per-query winning row of (Q, M) distance/delay matrices.

    Vectorized lexicographic argmin: smallest distance wins, delay
    breaks ties, then the lowest row index.
    """
    d_min = distances.min(axis=1, keepdims=True)
    candidates = distances == d_min
    masked = np.where(candidates, delays, np.inf)
    t_min = masked.min(axis=1, keepdims=True)
    return (candidates & (masked == t_min)).argmax(axis=1).astype(np.int64)


class TDAMArray:
    """Device-accurate M-row TD-AM array.

    Args:
        config: Design point (per-chain geometry and electricals).
        n_rows: Number of stored vectors (delay chains).
        rng: Seeded generator for device ensembles and variation draws.
        variation: Optional write-time V_TH variation model; when present,
            each FeFET's offset is re-drawn at write time according to the
            state it is programmed to.
    """

    def __init__(
        self,
        config: TDAMConfig,
        n_rows: int,
        rng: Optional[np.random.Generator] = None,
        variation: Optional[VariationModel] = None,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.config = config
        self.n_rows = n_rows
        self.encoding = LevelEncoding(config)
        self.timing = TimingEnergyModel(config)
        self.tdc = CounterTDC(config, self.timing)
        self.variation = variation
        rng = rng if rng is not None else np.random.default_rng()
        self._rng = rng
        self.chains: List[DelayChain] = [
            DelayChain(config, timing=self.timing, rng=rng, name=f"row{r}")
            for r in range(n_rows)
        ]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, row: int, vector: Sequence[int]) -> None:
        """Program one row; draws write-time variation when configured."""
        self._check_row(row)
        chain = self.chains[row]
        if self.variation is not None:
            values = self.encoding.validate_vector(vector)
            levels = self.config.levels
            for stage, value in zip(chain.stages, values):
                fa_state = int(value)
                fb_state = levels - 1 - int(value)
                sample = self.variation.draw([fa_state, fb_state])
                stage.set_vth_offsets(*sample.vth_shifts)
        chain.write(vector)

    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program every row from an (n_rows, n_stages) matrix."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != self.n_rows:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, array has {self.n_rows}"
            )
        for row in range(self.n_rows):
            self.write(row, matrix[row])

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def search(self, query: Sequence[int]) -> SearchResult:
        """Parallel 2-step search of the query against every row."""
        results: List[ChainResult] = [
            chain.search(query) for chain in self.chains
        ]
        delays = np.array([r.delay_total_s for r in results])
        counts = np.array([self.tdc.count(d) for d in delays])
        distances = np.array([self.tdc.decode_mismatches(d) for d in delays])
        energy = float(sum(r.energy_j for r in results))
        return SearchResult(
            delays_s=delays,
            counts=counts,
            hamming_distances=distances,
            best_row=int(resolve_best_batch(distances[None], delays[None])[0]),
            latency_s=float(delays.max()),
            energy_j=energy,
            n_stages=self.config.n_stages,
        )

    def row_result(self, row: int, query: Sequence[int]) -> ChainResult:
        """Full per-chain result for one row (diagnostics)."""
        self._check_row(row)
        return self.chains[row].search(query)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows - 1}]")

    def __repr__(self) -> str:
        return (
            f"TDAMArray({self.n_rows} rows x {self.config.n_stages} stages, "
            f"{self.config.bits}-bit)"
        )


class FastTDAMArray:
    """Vectorized TD-AM array with calibrated conduction thresholds.

    Functionally equivalent to :class:`TDAMArray` but stores levels and
    V_TH offsets as numpy arrays.  The FeFET switch decision uses the
    turn-on overdrive calibrated from the same channel model (gate
    overdrive at which the drain current reaches the 1 uA ON threshold),
    so variation-induced comparison flips agree with the device-accurate
    array.

    Per-cell threshold tensors (``V_TH + offset`` for F_A/F_B, plus the
    nominal overdrive references of the delay-modulation path) are
    materialized at write time and cached between searches.  Code that
    mutates ``_off_a``/``_off_b`` **in place** (retention drift, BIST
    restore) must call :meth:`invalidate_threshold_cache` afterwards;
    :meth:`set_vth_offsets` (wholesale offsets) and re-assigning
    ``_vsl``, the re-biasable search-line ladder, invalidate on their
    own.

    Args:
        config: Design point.
        n_rows: Number of stored vectors.
        variation: Optional write-time variation model.
        rng: Unused directly (variation model owns its stream); kept for
            interface symmetry.
    """

    def __init__(
        self,
        config: TDAMConfig,
        n_rows: int,
        variation: Optional[VariationModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        self.config = config
        self.n_rows = n_rows
        self.encoding = LevelEncoding(config)
        self.timing = TimingEnergyModel(config)
        self.tdc = CounterTDC(config, self.timing)
        self.variation = variation
        self._vth = np.array(config.vth_levels)
        # The live (re-biasable) ladder and its nominal design value;
        # hoisted here so search() never rebuilds them per call.
        self._vsl = np.array(config.vsl_levels)
        self._vsl_nom = np.array(config.vsl_levels)
        self._stored = np.full((n_rows, config.n_stages), -1, dtype=np.int64)
        self._off_a = np.zeros((n_rows, config.n_stages))
        self._off_b = np.zeros((n_rows, config.n_stages))
        self._von = calibrate_turn_on_overdrive(config)
        # Per-call constants of the delay law and energy accounting.
        self._base_delay = 2 * config.n_stages * self.timing.d_inv
        self._d_c = self.timing.d_c
        self._delay_sens = config.delay_variation_sensitivity / config.vdd
        # Whether delay strictly increases with the mismatch count.
        # Then, under nominal timing, (distance, delay, row) order is
        # (count, row) order: the TDC decode is monotone in the delay,
        # so ranking exact counts is ranking the search result.  True
        # for any physical design point (d_C well above the ulp of the
        # base delay); checked so a degenerate config ranks the full
        # search instead of silently misordering ties.
        ladder = self._base_delay + np.arange(config.n_stages + 1) * self._d_c
        self._delay_monotone = bool(np.all(np.diff(ladder) > 0))
        self._written = np.zeros(n_rows, dtype=bool)
        self._all_written = False
        self._design_ineq: Optional[bool] = None

    @property
    def turn_on_overdrive(self) -> float:
        """Calibrated switch-on overdrive (V)."""
        return self._von

    # ------------------------------------------------------------------
    # Threshold cache
    # ------------------------------------------------------------------
    @property
    def _off_a(self) -> np.ndarray:
        return self._off_a_data

    @_off_a.setter
    def _off_a(self, value) -> None:
        self._off_a_data = np.asarray(value, dtype=float)
        self._thresholds_valid = False
        self._nominal_cache = None
        self._drop_tables()

    @property
    def _off_b(self) -> np.ndarray:
        return self._off_b_data

    @_off_b.setter
    def _off_b(self, value) -> None:
        self._off_b_data = np.asarray(value, dtype=float)
        self._thresholds_valid = False
        self._nominal_cache = None
        self._drop_tables()

    @property
    def _vsl(self) -> np.ndarray:
        return self._vsl_data

    @_vsl.setter
    def _vsl(self, value) -> None:
        # The search-line ladder is applied per query, so the threshold
        # tensors stay valid -- but the per-level mismatch tables bake
        # it in and must rebuild after a re-bias.
        self._vsl_data = np.asarray(value, dtype=float)
        self._nominal_cache = None
        self._drop_tables()

    def _drop_tables(self) -> None:
        """Mark the level tables and the XOR bit-planes stale, together:
        the one invalidation step behind every write, offset or ladder
        assignment and :meth:`invalidate_threshold_cache`."""
        self._tables_valid = False
        self._xor_planes_cache = _XOR_UNSET

    def invalidate_threshold_cache(self) -> None:
        """Mark the per-cell threshold tensors (and level tables) stale.

        Call after mutating ``_off_a``/``_off_b``/``_vsl`` (or
        ``_stored``) in place; the tensors are rebuilt lazily on the
        next search.  Re-assigning those attributes wholesale
        invalidates on its own.
        """
        self._thresholds_valid = False
        self._nominal_cache = None
        self._drop_tables()
        if _TM.enabled:
            _CACHE_EVENTS.inc(op="invalidate")
            _emit_probe("cache.threshold", op="invalidate")

    def set_vth_offsets(self, off_a, off_b) -> None:
        """Replace the V_TH offsets (V) of every F_A and every F_B cell.

        Both matrices have shape ``(n_rows, n_stages)`` and are assigned
        wholesale, in place of what the writes drew: aging shifts, a
        restored checkpoint, or variation drawn in another order.  The
        threshold cache and level tables are invalidated; the stored
        levels are kept.
        """
        shape = (self.n_rows, self.config.n_stages)
        off_a = np.asarray(off_a, dtype=float)
        off_b = np.asarray(off_b, dtype=float)
        if off_a.shape != shape or off_b.shape != shape:
            raise ValueError(
                f"offset shapes {off_a.shape} and {off_b.shape} != {shape}"
            )
        self._off_a = off_a
        self._off_b = off_b

    def _timing_is_nominal(self) -> bool:
        """Whether every delay modulation input sits at its design value.

        True iff all V_TH offsets are exactly zero and the live
        search-line ladder equals the nominal one.  In that regime the
        per-cell effective mismatch delay is *exactly* the nominal
        ``d_C`` (the overdrive deviation computes to 0.0), so the
        batched search and the top-k take the counts-times-``d_C`` delay
        form and stay bit-exact against the per-cell delay law.
        The flag is cached and invalidated with the threshold cache.
        """
        if self._nominal_cache is None:
            self._nominal_cache = bool(
                not self._off_a_data.any()
                and not self._off_b_data.any()
                and np.array_equal(self._vsl_data, self._vsl_nom)
            )
        return self._nominal_cache

    def _thresholds(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(vth_a, vth_b, vth_a_nom, vth_b_nom) per-cell tensors, cached."""
        if not self._thresholds_valid:
            levels = self.config.levels
            self._vth_a_nom = self._vth[self._stored]
            self._vth_b_nom = self._vth[levels - 1 - self._stored]
            self._vth_a = self._vth_a_nom + self._off_a_data
            self._vth_b = self._vth_b_nom + self._off_b_data
            self._thresholds_valid = True
        return self._vth_a, self._vth_b, self._vth_a_nom, self._vth_b_nom

    def _update_row_thresholds(self, rows, values: np.ndarray) -> None:
        """Refresh the cached threshold rows ``rows`` (if live) from
        their new levels ``values``; drop the tables."""
        if self._thresholds_valid:
            levels = self.config.levels
            self._vth_a_nom[rows] = self._vth[values]
            self._vth_b_nom[rows] = self._vth[levels - 1 - values]
            self._vth_a[rows] = self._vth_a_nom[rows] + self._off_a_data[rows]
            self._vth_b[rows] = self._vth_b_nom[rows] + self._off_b_data[rows]
        self._drop_tables()

    def _build_level_tables(
        self,
        vth_a: np.ndarray,
        vth_b: np.ndarray,
        vth_a_nom: np.ndarray,
        vth_b_nom: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query-level mismatch and delay-contribution tables.

        For thresholds of shape ``S`` returns ``(mism, contrib)`` of
        shape ``(L,) + S``: entry ``[l]`` is the search arithmetic for a
        stage whose query level is ``l`` -- the boolean mismatch
        decision and the elementwise ``mism * d_c_eff`` delay
        contribution.  The conducting device's gate-overdrive
        *deviation from its own nominal overdrive* modulates the delay:
        weaker conduction discharges MN slower, lengthening the switch
        turn-on (the second-order variation path of the VC design).
        Expressed through the overdrive deviation (not the raw V_TH
        shift), search-line re-biasing (aging compensation) restores
        the timing too; with nominal search lines it reduces exactly to
        the per-device V_TH shift, matching the device-accurate array.
        The batched kernel gathers from these tables instead of
        recomputing per query.
        """
        levels = self.config.levels
        extra = (np.newaxis,) * vth_a.ndim
        vsl_a = self._vsl[:levels][(slice(None),) + extra]
        vsl_b = self._vsl[levels - 1::-1][(slice(None),) + extra]
        fa_on = (vsl_a - vth_a) >= self._von
        fb_on = (vsl_b - vth_b) >= self._von
        mism = fa_on | fb_on
        vsl_a_nom = self._vsl_nom[:levels][(slice(None),) + extra]
        vsl_b_nom = self._vsl_nom[levels - 1::-1][(slice(None),) + extra]
        dev_a = (vsl_a_nom - vth_a_nom) - (vsl_a - vth_a)
        dev_b = (vsl_b_nom - vth_b_nom) - (vsl_b - vth_b)
        deviation = np.where(fa_on, dev_a, dev_b)
        d_c_eff = self._d_c * np.maximum(
            1.0 + self._delay_sens * deviation, 0.0
        )
        return mism, mism * d_c_eff

    def _level_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """(mism, contrib) gather tables, shape (n_rows, L * n_stages).

        Lazily rebuilt write-time caches indexed by ``level * n_stages +
        stage``: ``mism[m, l * N + n]`` is the mismatch decision of cell
        ``(m, n)`` against query level ``l``, and ``contrib`` the
        matching delay contribution (s).  The batched search kernel
        turns per-query work into one fancy gather plus a contiguous
        last-axis reduction, which keeps its sums bit-identical to
        per-row reductions over the cells in stage order.
        """
        if not self._tables_valid:
            if _TM.enabled:
                _CACHE_EVENTS.inc(op="rebuild")
                _emit_probe("cache.threshold", op="rebuild")
                with _trace.span(
                    "array.rebuild_tables",
                    rows=self.n_rows,
                    stages=self.config.n_stages,
                ):
                    self._rebuild_level_tables()
            else:
                self._rebuild_level_tables()
        elif _TM.enabled:
            _CACHE_EVENTS.inc(op="hit")
        return self._mism_table, self._contrib_table

    def _rebuild_level_tables(self) -> None:
        """Materialize the gather tables and bit-planes from the threshold
        cache."""
        vth_a, vth_b, vth_a_nom, vth_b_nom = self._thresholds()
        mism, contrib = self._build_level_tables(
            vth_a, vth_b, vth_a_nom, vth_b_nom
        )
        # (L, M, N) -> (M, L * N) so a per-chunk gather runs over
        # the contiguous trailing axis.
        shape = (self.n_rows, -1)
        self._mism_table = np.ascontiguousarray(
            mism.transpose(1, 0, 2)
        ).reshape(shape)
        self._contrib_table = np.ascontiguousarray(
            contrib.transpose(1, 0, 2)
        ).reshape(shape)
        # (L, M, B) uint8 bit-planes for the packed-popcount kernel
        # (see repro.core.bitplane).
        self._mism_packed = pack_level_planes(mism)
        self._tables_valid = True

    def _xor_bit_planes(self) -> Optional[np.ndarray]:
        """(bits, M, B) stored-level bit-planes, or ``None``.

        The packed kernel's XOR fast path is sound only when every
        cell's decision is *pure level inequality* -- proven, not
        assumed.  Under nominal timing a cell decides as the design does
        for its stored level, so the proof is the L x L design table
        (:meth:`_build_level_tables` for one row holding each level must
        equal ``l != s``), once per array.  Otherwise the level tables
        are compared byte-for-byte against the inequality planes; one
        flipped entry falls back to the general one-hot reduction.
        """
        if self._xor_planes_cache is _XOR_UNSET:
            stored = self._stored
            levels = self.config.levels
            eligible = (
                levels >= 2
                and levels & (levels - 1) == 0
                and stored.min() >= 0
            )
            if eligible and self._timing_is_nominal():
                if self._design_ineq is None:
                    design = np.arange(levels)
                    vth_a = self._vth[design]
                    vth_b = self._vth[levels - 1 - design]
                    mism, _ = self._build_level_tables(
                        vth_a, vth_b, vth_a, vth_b
                    )
                    self._design_ineq = np.array_equal(
                        mism, design[:, None] != design[None, :]
                    )
                eligible = self._design_ineq
            elif eligible:
                self._level_tables()
                ineq = np.arange(levels)[:, None, None] != stored[None, :, :]
                eligible = np.array_equal(
                    self._mism_packed, pack_level_planes(ineq)
                )
            self._xor_planes_cache = (
                pack_bit_planes(stored, levels.bit_length() - 1)
                if eligible else None
            )
        return self._xor_planes_cache

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, row: int, vector: Sequence[int]) -> None:
        """Program one row (vectorized)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows - 1}]")
        self._write_rows([row], self._validate_vector(vector)[None, :])

    def write_all(self, matrix: Sequence[Sequence[int]]) -> None:
        """Program every row from an (n_rows, n_stages) matrix.

        One vectorized write: validation, variation draws, and the
        threshold-tensor rebuild happen on whole matrices.  The variation
        stream is consumed in the same order as per-row :meth:`write`
        calls (row 0 F_A, row 0 F_B, row 1 F_A, ...) in one flat draw,
        so seeded runs are bit-identical to the historical row loop.
        """
        if not _TM.enabled:
            return self._write_all_impl(matrix)
        with _trace.span(
            "array.write_all",
            rows=self.n_rows,
            stages=self.config.n_stages,
        ):
            self._write_all_impl(matrix)
        _WRITES.inc()
        _emit_probe(
            "array.write_all", rows=self.n_rows, stages=self.config.n_stages
        )

    def _write_all_impl(self, matrix: Sequence[Sequence[int]]) -> None:
        values = self._validate_image(matrix, self.n_rows)
        self._write_rows(slice(None), values)

    def _validate_vector(self, vector: Sequence[int]) -> np.ndarray:
        """Validate one ``n_stages`` level vector to write."""
        values = self.encoding.validate_vector(vector)
        if len(values) != self.config.n_stages:
            raise ValueError(
                f"vector length {len(values)} != n_stages {self.config.n_stages}"
            )
        return values

    def _validate_image(self, matrix, n_rows: int) -> np.ndarray:
        """Validate an ``(n_rows, n_stages)`` level matrix to write."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != n_rows:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, array has {n_rows}"
            )
        values = self._validate_matrix(matrix)
        if values.shape[1] != self.config.n_stages:
            raise ValueError(
                f"vector length {values.shape[1]} != "
                f"n_stages {self.config.n_stages}"
            )
        return values

    def _write_rows(self, rows, values: np.ndarray) -> None:
        """Program validated ``(R, n_stages)`` levels onto ``rows``.

        One vectorized write for any row subset (an index array or a
        slice, R rows in the order given): variation is drawn in that
        order, F_A then F_B per row, in one flat draw -- the stream
        per-row :meth:`write` calls in the same order consume -- and
        the live threshold rows are refreshed and the tables dropped
        once.
        """
        self._stored[rows] = values
        if self.variation is not None:
            levels = self.config.levels
            n_r, n = values.shape
            # Interleave F_A and F_B states row-major so the flat draw
            # consumes the RNG stream exactly like per-row write calls.
            states = np.empty((n_r, 2, n), dtype=np.int64)
            states[:, 0, :] = values
            states[:, 1, :] = levels - 1 - values
            shifts = self.variation.draw(states.reshape(-1)).vth_shifts
            shifts = shifts.reshape(n_r, 2, n)
            self._off_a_data[rows] = shifts[:, 0, :]
            self._off_b_data[rows] = shifts[:, 1, :]
            self._nominal_cache = None
        self._update_row_thresholds(rows, values)
        if not self._all_written:
            self._written[rows] = True
            self._all_written = bool(self._written.all())

    def _validate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Matrix analog of ``LevelEncoding.validate_vector``."""
        return validate_levels(
            matrix, self.config.levels, ndim=2, name="vector"
        )

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def _check_written(self) -> None:
        if not self._all_written:
            if bool(self._written.all()):
                self._all_written = True
            else:
                raise RuntimeError("search before all rows were written")

    def _validate_query(self, query: Sequence[int]) -> np.ndarray:
        """Validate one ``n_stages`` query vector of a written array."""
        self._check_written()
        q = self.encoding.validate_vector(query)
        if len(q) != self.config.n_stages:
            raise ValueError(
                f"query length {len(q)} != n_stages {self.config.n_stages}"
            )
        return q

    def mismatch_matrix(self, query: Sequence[int]) -> np.ndarray:
        """Device-level mismatch decisions, shape (n_rows, n_stages)."""
        q = self._validate_query(query)
        levels = self.config.levels
        vth_a, vth_b, _, _ = self._thresholds()
        vsl_a = self._vsl[q][None, :]
        vsl_b = self._vsl[levels - 1 - q][None, :]
        fa_on = (vsl_a - vth_a) >= self._von
        fb_on = (vsl_b - vth_b) >= self._von
        return fa_on | fb_on

    def mismatch_tensor(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Mismatch decisions for a query batch, shape (Q, n_rows, n_stages).

        Materializes the full boolean tensor -- use the count/search
        batch entry points when only reductions are needed.  Each
        ``[i]`` slice equals ``mismatch_matrix(queries[i])``.
        """
        q = self._validate_queries(queries)
        chunk = _resolve_chunk_arg(chunk, self.n_rows, self.config.n_stages)
        mism_table, _ = self._level_tables()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        out = np.empty((q.shape[0], self.n_rows, n), dtype=bool)
        for start in range(0, q.shape[0], chunk):
            block = q[start:start + chunk]
            idx = block * n + stage_idx
            out[start:start + chunk] = mism_table.take(idx, axis=1).transpose(1, 0, 2)
        return out

    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        """Validate a (Q, n_stages) query batch."""
        self._check_written()
        q = np.atleast_2d(np.asarray(queries))
        q = self._validate_matrix(q)
        if q.shape[1] != self.config.n_stages:
            raise ValueError(
                f"query length {q.shape[1]} != "
                f"n_stages {self.config.n_stages}"
            )
        return q

    def mismatch_count_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Per-row mismatch counts of a query batch, shape (Q, n_rows).

        The reduction-only entry point (no delay modulation), counted by
        the same packed kernel as :meth:`search_batch`; each row equals
        ``mismatch_matrix(queries[i]).sum(axis=1)``.
        """
        q = self._validate_queries(queries)
        if q.shape[0] == 0:
            return np.zeros((0, self.n_rows), dtype=np.int64)
        return self._counts_packed(q, chunk)

    def _cell_mismatches(
        self, queries: np.ndarray, rows: np.ndarray, stages: np.ndarray
    ) -> np.ndarray:
        """Clean decisions of cells ``(rows, stages)``, shape (Q,) + S.

        ``rows`` and ``stages`` broadcast to ``S``.  The elementwise
        arithmetic of :meth:`mismatch_matrix` on the same thresholds,
        so each entry equals ``mismatch_matrix(queries[i])[rows,
        stages]``: the term a fault correction replaces.
        """
        levels = self.config.levels
        vth_a, vth_b, _, _ = self._thresholds()
        q = queries[:, stages]
        fa_on = (self._vsl[q] - vth_a[rows, stages]) >= self._von
        fb_on = (self._vsl[levels - 1 - q] - vth_b[rows, stages]) >= self._von
        return fa_on | fb_on

    def batch_result_from_mismatch_counts(
        self,
        mismatch_counts: np.ndarray,
        delay_adders_s: Optional[np.ndarray] = None,
    ) -> BatchSearchResult:
        """Assemble a :class:`BatchSearchResult` from (Q, M) mismatch counts.

        The single place where the delay law ``d_tot = 2 N d_INV +
        N_mis d_C`` is turned into delays, TDC counts, decoded
        distances, the distance -> delay -> row winner resolution, and
        the energy total, on whole matrices.  The clean search, the
        fault-injected wrapper and the resilient array all go through
        here, single queries as batches of one, so their decode and
        ordering semantics cannot drift apart.  A dead row is counted as
        all-mismatch: its delay evaluates to the controller timeout
        ``chain_delay(n_stages)`` and it decodes to the maximum
        distance.

        Args:
            mismatch_counts: True per-row mismatch counts, shape (Q, M)
                (drives the energy accounting and, absent
                ``delay_adders_s``, the delays).
            delay_adders_s: Optional per-query per-row mismatch delay
                totals (s), shape (Q, M), replacing the nominal
                ``counts * d_C`` term (the variation-modulated path).
        """
        # C-layout normalization matters for bit-exactness: advanced
        # indexing preserves the index array's memory order, so a
        # transposed counts view would make the energy gather F-ordered
        # and its axis-1 sum reduce in a different pairwise blocking.
        mismatch_counts = np.ascontiguousarray(mismatch_counts)
        if mismatch_counts.ndim != 2 or mismatch_counts.shape[1] != self.n_rows:
            raise ValueError(
                f"mismatch_counts shape {mismatch_counts.shape} is not "
                f"(Q, {self.n_rows})"
            )
        if delay_adders_s is None:
            delays = self._base_delay + mismatch_counts * self._d_c
        else:
            delays = self._base_delay + delay_adders_s
        with _trace.span(
            "array.sense",
            rows=self.n_rows,
            queries=int(mismatch_counts.shape[0]),
        ):
            counts = self.tdc.count_array(delays)
            distances = self.tdc.decode_array(delays)
        energies = self.timing.search_energy_table()[mismatch_counts].sum(
            axis=1
        )
        return BatchSearchResult(
            delays_s=delays,
            counts=counts,
            hamming_distances=distances,
            best_rows=resolve_best_batch(distances, delays),
            latencies_s=delays.max(axis=1),
            energies_j=energies,
            n_stages=self.config.n_stages,
        )

    def _counts_packed(
        self,
        queries: np.ndarray,
        chunk: Optional[int] = None,
        reduce: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Mismatch counts via the bit-plane popcount kernel, (Q, M).

        The one count kernel behind every batched entry point.  Queries
        become per-level one-hot bit masks; ANDing a mask with the
        write-time bit-planes selects exactly the mismatching stages,
        and a popcount reduces them -- about one bit of memory traffic
        per cell instead of eight float bytes.  When the tables are
        provably pure level inequality (:meth:`_xor_bit_planes`), the
        one-hot reduction collapses further to ``log2(L)`` XORs over
        the stored-level bit-planes, and no level table is read.
        Counts are exact integers, identical to :meth:`_counts_loop`.

        ``chunk=None`` divides the :data:`QUERY_CHUNK_BUDGET_BYTES`
        budget by what grows with each query of a chunk: its row of
        narrow counts and the copy made of it, int64 counts (8 bytes a
        row) or the nominal top-k's int32 rank keys (4 bytes a row).
        The kernels' XOR (or AND) words do not grow with the chunk:
        they count in query tiles of a fixed size
        (:mod:`repro.core.bitplane`, "Tiling").

        ``reduce``, when given, maps each chunk's C-contiguous
        ``(chunk, M)`` counts as they leave the kernel, in the kernels'
        narrow count dtype, and the reduced chunks are stacked instead:
        the nominal top-k ranks there, so it never holds the full
        ``(Q, M)`` count matrix.  Without it the counts are int64, the
        dtype of the public count matrices, to which fault corrections
        add signed terms.
        """
        _check_chunk(chunk)
        planes = self._xor_bit_planes()
        if planes is not None:
            path = "xor"

            def count(block: np.ndarray) -> np.ndarray:
                return packed_xor_counts(
                    planes, pack_bit_planes(block, planes.shape[0])
                )
        else:
            self._level_tables()
            planes = self._mism_packed
            levels = self.config.levels
            path = "onehot"

            def count(block: np.ndarray) -> np.ndarray:
                return packed_mismatch_counts(
                    planes, pack_query_masks(block, levels)
                )
        if chunk is None:
            copy_bytes = 8 if reduce is None else 4
            count_bytes = _count_dtype(planes.shape[2]).itemsize
            chunk = _budget_chunk(self.n_rows * (count_bytes + copy_bytes))
        n_q = queries.shape[0]

        def block(start: int) -> np.ndarray:
            counts = count(queries[start:start + chunk])
            if reduce is None:
                return counts.astype(np.int64)
            return reduce(counts)

        def run() -> np.ndarray:
            first = block(0)
            if n_q <= chunk:
                return first
            out = np.empty((n_q,) + first.shape[1:], dtype=first.dtype)
            out[:chunk] = first
            for start in range(chunk, n_q, chunk):
                out[start:start + chunk] = block(start)
            return out

        if _TM.enabled:
            # The dispatch span inherits the active request/batch
            # context -- the last hop of a request's trace.
            with _trace.span(
                "kernel.dispatch", kernel=path, rows=self.n_rows, queries=n_q
            ):
                return run()
        return run()

    def _counts_loop(self, queries: np.ndarray) -> np.ndarray:
        """Per-query reference kernel: the bit-exactness yardstick.

        One gather-and-reduce per query, no batching tricks.  No search
        path calls it; the property tests and ``tools/bench_report.py``
        call it directly to prove :meth:`_counts_packed` bit-exact.
        """
        mism_table, _ = self._level_tables()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        counts = np.empty((queries.shape[0], self.n_rows), dtype=np.int64)
        for i, query in enumerate(queries):
            idx = query * n + stage_idx
            counts[i] = mism_table[:, idx].sum(axis=1)
        return counts

    def _delay_adders(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Variation-modulated per-query delay totals (s), shape (Q, M).

        A fancy gather from the write-time contribution table plus a
        contiguous last-axis reduction: the gathered values are the
        per-cell delay law (:meth:`_build_level_tables`) and each sum
        runs over one row's cells in stage order, so per-query delays
        are bit-identical to summing each row's per-cell contributions.
        ``chunk=None`` sizes the ``(M, chunk, N)`` float gather by
        :func:`resolve_query_chunk`.
        """
        chunk = _resolve_chunk_arg(chunk, self.n_rows, self.config.n_stages)
        _, contrib_table = self._level_tables()
        n = self.config.n_stages
        stage_idx = np.arange(n)
        n_q = queries.shape[0]
        adders = np.empty((n_q, self.n_rows))
        for start in range(0, n_q, chunk):
            block = queries[start:start + chunk]
            idx = block * n + stage_idx
            adders[start:start + chunk] = (
                contrib_table.take(idx, axis=1).sum(axis=2).T
            )
        return adders

    def search(self, query: Sequence[int]) -> SearchResult:
        """Parallel 2-step search of one query: a batch of one.

        :meth:`search_batch` on the validated vector, so one query
        shares the batch's delay law, decode, energy and winner rule.
        """
        q = self._validate_query(query)
        return self.search_batch(q[None, :]).result(0)

    def search_batch(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        """Batched parallel search: Q queries in one vectorized kernel.

        Each query's slice equals the scalar reference ``fast_search``
        in ``tests/oracles.py`` bit-for-bit (an equivalence suite
        asserts it), but mismatch counting runs on the packed bit-plane
        kernel (:meth:`_counts_packed`), the TDC decode is array-valued,
        and the energy total is an affine table lookup -- no per-query
        Python overhead.

        Args:
            queries: Query levels, shape (Q, n_stages).
            chunk: Queries per materialized tensor chunk (memory
                bound); ``None`` sizes each kernel's chunk to
                :data:`QUERY_CHUNK_BUDGET_BYTES`.
        """
        if not _TM.enabled:
            return self._search_batch_impl(queries, chunk)
        with _trace.span(
            "array.search_batch",
            rows=self.n_rows,
            stages=self.config.n_stages,
            queries=int(np.atleast_2d(np.asarray(queries)).shape[0]),
        ):
            result = self._search_batch_impl(queries, chunk)
        if len(result):
            _record_search_telemetry(self, result)
        return result

    def _search_batch_impl(
        self, queries: np.ndarray, chunk: Optional[int] = None
    ) -> BatchSearchResult:
        q = self._validate_queries(queries)
        if q.shape[0] == 0:
            return self.batch_result_from_mismatch_counts(
                np.zeros((0, self.n_rows), dtype=np.int64)
            )
        counts = self._counts_packed(q, chunk)
        if self._timing_is_nominal():
            # The delay law is exactly ``counts * d_C`` on every path.
            return self.batch_result_from_mismatch_counts(counts)
        return self.batch_result_from_mismatch_counts(
            counts, delay_adders_s=self._delay_adders(q, chunk)
        )

    def top_k_batch(
        self,
        queries: np.ndarray,
        k: int,
        rows: Optional[np.ndarray] = None,
        chunk: Optional[int] = None,
    ) -> np.ndarray:
        """Per-query top-k row indices without a full search, (Q, k).

        Bit-identical to ``search_batch(queries).top_k(k)`` (restricted
        to ``rows`` when given) -- an exactness suite asserts it.  Under
        nominal timing the packed count kernel's exact counts are
        ranked per query chunk as they leave the kernel, skipping the
        TDC decode, energy accounting, and winner resolution of the
        full search, and never holding the full ``(Q, M)`` counts;
        under variation (or a degenerate delay ladder) the full search
        is ranked.  A contiguous ``rows`` range is ranked on a column
        view of the counts, without a gather.

        Args:
            queries: Query levels, shape (Q, n_stages).
            k: Rows to return per query, ``1 <= k <= len(rows)``.
            rows: Optional strictly increasing row subset to rank
                (default: all rows); returned indices are array row
                ids, not subset positions.
            chunk: Queries per materialized block; ``None`` auto-sizes.
        """
        q = self._validate_queries(queries)
        if not _TM.enabled:
            return self._top_k_batch_impl(q, k, rows, chunk)
        with _trace.span(
            "array.top_k_batch",
            rows=self.n_rows,
            stages=self.config.n_stages,
            queries=int(q.shape[0]),
        ):
            return self._top_k_batch_impl(q, k, rows, chunk)

    def _top_k_batch_impl(
        self,
        q: np.ndarray,
        k: int,
        rows: Optional[np.ndarray],
        chunk: Optional[int],
    ) -> np.ndarray:
        rows_arr: Optional[np.ndarray] = None
        cols = slice(None)
        m = self.n_rows
        if rows is not None:
            rows_arr = np.asarray(rows, dtype=np.int64)
            if rows_arr.ndim != 1 or rows_arr.shape[0] < 1:
                raise ValueError(
                    f"rows must be a non-empty 1-D index array, got "
                    f"shape {rows_arr.shape}"
                )
            if rows_arr[0] < 0 or rows_arr[-1] >= self.n_rows:
                raise ValueError(
                    f"rows must lie in [0, {self.n_rows - 1}]"
                )
            if rows_arr.shape[0] > 1 and not np.all(np.diff(rows_arr) > 0):
                raise ValueError("rows must be strictly increasing")
            m = rows_arr.shape[0]
            lo = int(rows_arr[0])
            if rows_arr[-1] == lo + m - 1:
                cols = slice(lo, lo + m)
            else:
                cols = rows_arr
        if not 1 <= k <= m:
            raise ValueError(f"k must be in [1, {m}], got {k}")
        if q.shape[0] == 0:
            return np.empty((0, k), dtype=np.int64)
        if self._timing_is_nominal() and self._delay_monotone:
            top = self._counts_packed(
                q, chunk, reduce=lambda c: top_k_indices(c[:, cols], k)
            )
        else:
            batch = self._search_batch_impl(q, chunk)
            top = top_k_indices(
                batch.hamming_distances[:, cols],
                k,
                delays_s=batch.delays_s[:, cols],
            )
        return top if rows_arr is None else rows_arr[top]

    def ideal_hamming(self, query: Sequence[int]) -> np.ndarray:
        """Variation-free per-row Hamming distances."""
        q = self.encoding.validate_vector(query)
        return (self._stored != q[None, :]).sum(axis=1)

    def __repr__(self) -> str:
        return (
            f"FastTDAMArray({self.n_rows} rows x {self.config.n_stages} "
            f"stages, {self.config.bits}-bit)"
        )
