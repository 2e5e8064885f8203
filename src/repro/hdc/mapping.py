"""Mapping HDC inference onto the TD-AM architecture (Fig. 8 system).

The quantized class hypervectors are laid across TD-AM tiles: each tile
is an M-row x N-stage array (M = classes, N = ``config.n_stages``; the
paper's system point is 128 stages at 0.6 V).  A query is processed
tile-serially -- ``ceil(D / N)`` tile searches -- while the class rows of
each tile run in parallel; per-tile TDC counts accumulate into the total
match count per class.

Architecture cost model (constants calibrated to the paper's Fig. 8
ranges; see EXPERIMENTS.md):

- latency = tiles * (worst-case chain delay + TDC conversion)
            + classes * readout;
- energy  = encoding (the FeFET IMC encoder of [39], proportional to
            D * F) + tile search energy + TDC/readout energy.

Functionally, the D-dimensional class matrix is one
:class:`~repro.core.array.FastTDAMArray` of D stages, counted by its
batched kernel.  Variation-aware inference draws per-device V_TH
offsets once (the array is programmed once) and replays every query
against the same imperfect devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.core.mvm import E_READOUT, T_READOUT_PER_CLASS, T_TDC_CONVERSION
from repro.core.topk import top_k_indices
from repro.devices.variation import VariationModel
from repro.hdc.quantize import QuantizedModel

# T_TDC_CONVERSION / T_READOUT_PER_CLASS / E_READOUT are the canonical
# fabric constants of :mod:`repro.core.mvm`, re-exported here because the
# Fig. 8 cost model below predates that module and callers import them
# from this namespace.

#: Energy of the in-memory HDC encoder per dimension-feature pair (J),
#: representative of the FeFET encoding engine of [39].
E_ENCODE_PER_DIMFEAT = 26e-15


@dataclass(frozen=True)
class InferenceCost:
    """Latency/energy of one query on the TD-AM system.

    Attributes:
        latency_s: End-to-end query latency.
        energy_j: End-to-end query energy.
        tiles: Number of serial tile searches.
        search_energy_j: The delay-chain search portion of ``energy_j``.
        encode_energy_j: The encoder portion of ``energy_j``.
    """

    latency_s: float
    energy_j: float
    tiles: int
    search_energy_j: float
    encode_energy_j: float


class TDAMInference:
    """Runs a quantized HDC model on the TD-AM architecture.

    Args:
        model: The quantized HDC model (levels must fit ``config.bits``).
        config: TD-AM design point; the paper's Fig. 8 system uses
            ``TDAMConfig(bits=model.bits, n_stages=128, vdd=0.6)``.
        n_features: Input feature count (encoder energy model).
        variation: Optional V_TH variation model; offsets are drawn once
            at construction (one programmed array) and affect every query.
        seed: Seed of the variation draw.
    """

    def __init__(
        self,
        model: QuantizedModel,
        config: Optional[TDAMConfig] = None,
        n_features: int = 600,
        variation: Optional[VariationModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        config = config or TDAMConfig(bits=model.bits, n_stages=128, vdd=0.6)
        if config.bits != model.bits:
            raise ValueError(
                f"config.bits={config.bits} != model.bits={model.bits}"
            )
        if model.levels.max() >= config.levels:
            raise ValueError(
                f"model levels up to {model.levels.max()} exceed the "
                f"{config.levels}-level cell"
            )
        self.model = model
        self.config = config
        self.n_features = n_features
        self.timing = TimingEnergyModel(config)
        self._array = FastTDAMArray(
            config.with_(n_stages=model.dimension), model.n_classes
        )
        self._array.write_all(model.levels)
        if variation is None:
            # A nominal model is the ideal exact-match Hamming cell, so
            # its design is declared pure level inequality and counts
            # take the XOR path -- also at 4 bits, where the calibrated
            # cell cannot resolve adjacent levels.
            self._array._design_ineq = True
        else:
            # F_A offsets of every cell, then F_B: seeded results depend
            # on this draw order (an array write would interleave the
            # two per row).
            stored = model.levels
            shape = stored.shape
            self._array._off_a = variation.draw(
                stored.reshape(-1)
            ).vth_shifts.reshape(shape)
            self._array._off_b = variation.draw(
                (config.levels - 1 - stored).reshape(-1)
            ).vth_shifts.reshape(shape)

    @property
    def _von(self) -> float:
        """Calibrated switch-on overdrive (V) of the mapped array."""
        return self._array.turn_on_overdrive

    # ------------------------------------------------------------------
    # Functional inference
    # ------------------------------------------------------------------
    @property
    def tiles(self) -> int:
        """Serial tile searches per query."""
        return math.ceil(self.model.dimension / self.config.n_stages)

    def _validate_queries(self, query_levels: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(query_levels, dtype=np.int64))
        if q.shape[1] != self.model.dimension:
            raise ValueError(
                f"query dimension {q.shape[1]} != model dimension "
                f"{self.model.dimension}"
            )
        if q.min() < 0 or q.max() >= self.config.levels:
            raise ValueError(
                f"query levels must be in [0, {self.config.levels - 1}]"
            )
        return q

    def mismatch_counts(
        self, query_levels: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Per-class mismatch counts for each query, shape (n_q, n_cls).

        Counted by the mapped array's
        :meth:`~repro.core.array.FastTDAMArray.mismatch_count_batch`:
        without a variation model this is the exact Hamming distance;
        with one, per-device offsets can flip individual comparisons.

        Args:
            query_levels: Query levels, shape (n_q, D).
            chunk: Queries per materialized block; ``None`` auto-sizes.
        """
        q = self._validate_queries(query_levels)
        return self._array.mismatch_count_batch(q, chunk=chunk)

    def top_k(
        self,
        query_levels: np.ndarray,
        k: int,
        chunk: Optional[int] = None,
    ) -> np.ndarray:
        """Per-query k best classes by mismatch count, shape (n_q, k).

        Ordered by mismatch count with the class index breaking ties:
        :meth:`mismatch_counts` ranked by
        :func:`~repro.core.topk.top_k_indices`.
        """
        return top_k_indices(self.mismatch_counts(query_levels, chunk), k)

    def predict(self, query_levels: np.ndarray) -> np.ndarray:
        """Predicted class per query: the row with the fewest mismatches."""
        return self.mismatch_counts(query_levels).argmin(axis=1)

    def accuracy(self, query_levels: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy of the mapped model."""
        labels = np.asarray(labels)
        return float((self.predict(query_levels) == labels).mean())

    # ------------------------------------------------------------------
    # Architecture cost model
    # ------------------------------------------------------------------
    def query_cost(self, mismatch_fraction: float = 0.5) -> InferenceCost:
        """Latency/energy of one query.

        Args:
            mismatch_fraction: Expected mismatching-stage fraction of the
                search activity (affects energy only; latency budgets the
                worst case, as a synchronous system must).
        """
        if not 0.0 <= mismatch_fraction <= 1.0:
            raise ValueError(
                f"mismatch_fraction must be in [0, 1], got {mismatch_fraction}"
            )
        n = self.config.n_stages
        n_classes = self.model.n_classes
        tiles = self.tiles
        worst_chain = self.timing.chain_delay(n)
        latency = (
            tiles * (worst_chain + T_TDC_CONVERSION)
            + n_classes * T_READOUT_PER_CLASS
        )
        n_mis = int(round(mismatch_fraction * n))
        per_chain = self.timing.search_cost(n_mis).energy_j
        search_energy = tiles * n_classes * (per_chain + E_READOUT)
        encode_energy = (
            self.model.dimension * self.n_features * E_ENCODE_PER_DIMFEAT
        )
        return InferenceCost(
            latency_s=latency,
            energy_j=search_energy + encode_energy,
            tiles=tiles,
            search_energy_j=search_energy,
            encode_energy_j=encode_energy,
        )
