"""Feature-to-hypervector encoders.

Two standard constructions plus the fabric-quantized variant:

- :class:`RandomProjectionEncoder` -- the OnlineHD-style nonlinear random
  projection used by the paper's reference framework [35]: a fixed seeded
  Gaussian matrix projects the feature vector into D dimensions, followed
  by an optional cosine nonlinearity.
- :class:`QuantizedProjectionEncoder` -- the in-fabric version of the
  same encoder: the projection is quantized to narrow signed integers
  and served as an exact integer MVM through
  :class:`repro.core.mvm.MVMPlan`, whose cost model charges the TD-CIM
  array's bit-serial plane passes for doing the projection itself
  (arXiv 2209.11971).
- :class:`RecordEncoder` -- the classical record-based (ID x level)
  scheme: each feature gets a random ID hypervector, its value picks a
  correlated level hypervector, and the feature bindings are bundled.
  The bundling is served as a one-hot integer MVM over the bound
  item memory -- bit-identical to the per-feature reference loop.

Performance note.  The nonlinear projection is algebraically
rearranged for the fast path: with ``p = X @ P.T`` and phase ``b``,

    ``cos(p + b) * sin(p) = 0.5 * (sin(2p + b) - sin(b))``

so one GEMM against a pre-doubled, phase-augmented weight matrix plus a
single vectorized ``sin`` replaces the two trig evaluations, and every
array stays float32 end to end (the historical path silently promoted
to float64 through a float64 scalar divide, dragging the trig calls
onto the scalar libm path).  The identity is exact in real arithmetic;
in float32 the outputs agree with the direct form to ~1e-6 and remain
bounded by 1 in magnitude.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import TDAMConfig
from repro.core.mvm import MVMCost, MVMPlan
from repro.hdc.hypervector import level_hypervectors, random_bipolar
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM


class RandomProjectionEncoder:
    """Nonlinear random-projection encoder (OnlineHD style).

    ``H = cos(X @ P.T + b) * sin(X @ P.T)`` with a seeded Gaussian ``P``
    and uniform phase ``b`` when ``nonlinear=True``; plain ``X @ P.T``
    otherwise.

    Args:
        n_features: Input feature count.
        dimension: Hypervector dimension D.
        nonlinear: Apply the trigonometric nonlinearity.
        seed: Projection seed (fixes the encoder).
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        nonlinear: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if n_features < 1 or dimension < 1:
            raise ValueError("n_features and dimension must be >= 1")
        self.n_features = n_features
        self.dimension = dimension
        self.nonlinear = nonlinear
        rng = np.random.default_rng(seed)
        self._projection = (
            rng.standard_normal((dimension, n_features)) / np.sqrt(n_features)
        ).astype(np.float32)
        self._phase = rng.uniform(0, 2 * np.pi, size=dimension).astype(
            np.float32
        )
        if nonlinear:
            # Fast-path weights: [2P | b] so one GEMM yields 2p + b
            # directly, and the constant sin(b) offset of the
            # product-to-sum identity.
            aug = np.empty((dimension, n_features + 1), dtype=np.float32)
            aug[:, :n_features] = 2.0 * self._projection
            aug[:, n_features] = self._phase
            self._aug = aug
            self._sin_phase = np.sin(self._phase).astype(np.float32)
            self._half_sin = (0.5 * self._sin_phase).astype(np.float32)
            # Full-width sin(b) tiles per batch size: a same-shape
            # subtrahend runs one long contiguous loop where a (D, 1)
            # broadcast pays per-row overhead on small batches.
            self._sin_tiles: dict = {}

    def _validate(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=np.float32))
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[1]}"
            )
        return x

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode feature rows into hypervectors.

        Args:
            features: Shape (n_samples, n_features) or (n_features,).

        Returns:
            Float hypervectors, shape (n_samples, dimension) (2-D even
            for a single sample).
        """
        x = self._validate(features)
        if not self.nonlinear:
            return x @ self._projection.T
        # (F+1, S) augmented activations; the GEMM runs in the
        # (D, F+1) x (F+1, S) orientation (measurably faster than the
        # skinny-M transpose on small batches) and the trig identity
        # halves the elementwise work.  See the module docstring.
        n = x.shape[0]
        xa = np.empty((self.n_features + 1, n), dtype=np.float32)
        xa[: self.n_features] = x.T
        xa[self.n_features] = 1.0
        t = self._aug @ xa  # (D, S) == 2p + b
        np.sin(t, out=t)
        t -= self._sin_tile(n)
        t *= np.float32(0.5)
        return t.T

    def _sin_tile(self, n: int) -> np.ndarray:
        tile = self._sin_tiles.get(n)
        if tile is None:
            tile = np.repeat(self._sin_phase[:, None], n, axis=1)
            self._sin_tiles[n] = tile
        return tile

    def quantize(
        self,
        weight_bits: int = 8,
        act_bits: int = 8,
        config: Optional[TDAMConfig] = None,
    ) -> "QuantizedProjectionEncoder":
        """The in-fabric quantized variant of this encoder."""
        return QuantizedProjectionEncoder(
            self, weight_bits=weight_bits, act_bits=act_bits, config=config
        )


class QuantizedProjectionEncoder:
    """In-fabric random projection: quantized weights, bit-serial MVM.

    Quantizes the base encoder's Gaussian projection to signed
    ``weight_bits`` integers (symmetric, one scale per output
    dimension), quantizes each activation row to signed ``act_bits``
    integers (symmetric, one scale per sample), and serves the
    projection as an **exact** integer MVM through
    :class:`repro.core.mvm.MVMPlan` -- the same exact-by-bounds GEMM
    and bit-serial fabric cost model as every other MVM geometry.
    Dequantization and the trigonometric nonlinearity then
    run exactly like the float encoder, so the only accuracy impact is
    the projection quantization itself (measured on the fig. 7 harness
    -- see ``repro.experiments.fig7_hdc_accuracy``).

    Args:
        base: The float encoder to quantize (geometry, seed and
            nonlinearity are inherited).
        weight_bits: Stored projection width, 2..8 (signed).
        act_bits: Streamed activation width, 2..8 (signed).
        config: Fabric design point for the MVM cost model.
    """

    def __init__(
        self,
        base: RandomProjectionEncoder,
        weight_bits: int = 8,
        act_bits: int = 8,
        config: Optional[TDAMConfig] = None,
    ) -> None:
        if not 2 <= weight_bits <= 8:
            raise ValueError(
                f"weight_bits must be in [2, 8], got {weight_bits}"
            )
        if not 2 <= act_bits <= 8:
            raise ValueError(f"act_bits must be in [2, 8], got {act_bits}")
        self.base = base
        self.n_features = base.n_features
        self.dimension = base.dimension
        self.nonlinear = base.nonlinear
        self.weight_bits = weight_bits
        self.act_bits = act_bits
        top = float((1 << (weight_bits - 1)) - 1)
        magnitude = np.abs(base._projection).max(axis=1)
        self._w_scale = np.where(magnitude > 0, magnitude / top, 1.0).astype(
            np.float32
        )
        w_int = np.rint(
            base._projection / self._w_scale[:, None]
        ).astype(np.int64)
        self.plan = MVMPlan(
            w_int, bits=weight_bits, signed=True, config=config
        )
        self._act_top = float((1 << (act_bits - 1)) - 1)

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode feature rows through the quantized fabric projection."""
        x = self.base._validate(features)
        amax = np.abs(x).max(axis=1) if x.size else np.zeros(x.shape[0])
        a_scale = np.where(amax > 0, amax / self._act_top, 1.0).astype(
            np.float32
        )
        acts = np.rint(x / a_scale[:, None]).astype(np.int64)
        counts = self.plan.matmul(
            acts, bits=self.act_bits, signed=True
        )  # (S, D) exact int64
        projected = counts.astype(np.float32)
        projected *= a_scale[:, None]
        projected *= self._w_scale[None, :]
        if _TM.enabled:
            cost = self.encode_cost(x.shape[0])
            _emit_probe(
                "mvm.encode",
                n_samples=int(x.shape[0]),
                dimension=self.dimension,
                weight_bits=self.weight_bits,
                activation_bits=self.act_bits,
                latency_s=cost.latency_s,
                energy_j=cost.energy_j,
            )
        if not self.nonlinear:
            return projected
        t = 2.0 * projected
        t += self.base._phase
        np.sin(t, out=t)
        t *= np.float32(0.5)
        t -= self.base._half_sin[None, :]
        return t

    def encode_cost(self, n_samples: int = 1) -> MVMCost:
        """Modeled fabric latency/energy of encoding ``n_samples`` rows."""
        return self.plan.cost(
            activation_bits=self.act_bits, n_batch=n_samples
        )


class RecordEncoder:
    """Record-based (ID x level) encoder.

    Args:
        n_features: Input feature count.
        dimension: Hypervector dimension D.
        n_levels: Quantization levels of the feature values.
        feature_range: (low, high) range the features are clipped to
            before level lookup.
        seed: Item-memory seed.
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        n_levels: int = 16,
        feature_range: "tuple[float, float]" = (-1.0, 1.0),
        seed: Optional[int] = 0,
    ) -> None:
        if n_features < 1 or dimension < 1:
            raise ValueError("n_features and dimension must be >= 1")
        if n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {n_levels}")
        low, high = feature_range
        if low >= high:
            raise ValueError(f"feature_range must be (low, high), got {feature_range}")
        self.n_features = n_features
        self.dimension = dimension
        self.n_levels = n_levels
        self.feature_range = (float(low), float(high))
        rng = np.random.default_rng(seed)
        self._ids = random_bipolar(n_features, dimension, rng)
        self._levels = level_hypervectors(n_levels, dimension, rng)
        self._plan: Optional[MVMPlan] = None

    def _level_index(self, values: np.ndarray) -> np.ndarray:
        low, high = self.feature_range
        clipped = np.clip(values, low, high)
        scaled = (clipped - low) / (high - low)
        return np.minimum(
            (scaled * self.n_levels).astype(np.int64), self.n_levels - 1
        )

    def _bound_plan(self) -> MVMPlan:
        """Weight-stationary plan over the bound item memory.

        Entry ``(f, l)`` of the ``(D, F * L)`` weight matrix is
        ``ids[f] * levels[l]`` -- the ID x level binding, a bipolar
        integer.  Built lazily (it is the fabric's one-time program
        step) and cached for the life of the encoder.
        """
        if self._plan is None:
            shape = (self.dimension, self.n_features, self.n_levels)
            bound = np.empty(shape, dtype=np.int8)
            ids_t = self._ids.T.astype(np.int8)  # (D, F)
            levels_t = self._levels.T.astype(np.int8)  # (D, L)
            np.multiply(
                ids_t[:, :, None], levels_t[:, None, :], out=bound
            )
            weights = bound.reshape(
                self.dimension, self.n_features * self.n_levels
            )
            self._plan = MVMPlan(weights, bits=2, signed=True)
        return self._plan

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode feature rows: bundle of ID (x) level bindings per row.

        Served as a one-hot integer MVM over the bound item memory:
        sample ``s`` activates entry ``(f, level_idx[s, f])`` for every
        feature, so the exact int64 product against the binding matrix
        is the bundled sum.  Bit-identical to the per-feature reference
        loop ``sum_f ids[f] * levels[level_idx[:, f]]`` -- every
        partial sum is a small exact integer, so the float32 cast at
        the end is exact too (the equivalence test asserts it).
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float32))
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[1]}"
            )
        level_idx = self._level_index(x)  # (n_samples, n_features)
        n = x.shape[0]
        flat = level_idx + (
            np.arange(self.n_features, dtype=np.int64) * self.n_levels
        )[None, :]
        onehot = np.zeros(
            (n, self.n_features * self.n_levels), dtype=np.uint8
        )
        np.put_along_axis(onehot, flat, 1, axis=1)
        counts = self._bound_plan().matmul(onehot, bits=1, signed=False)
        return counts.astype(np.float32)
