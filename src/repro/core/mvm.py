"""Integer MVM on the time-domain fabric: exact GEMM, bit-serial cost.

Yin et al.'s homogeneous TD-CIM array (arXiv 2209.11971) performs both
associative search *and* multiply-accumulate on the same ferroelectric
time-domain fabric: operands are decomposed into bit-planes, each
weight-plane x activation-plane pair is one AND + popcount array shot,
and partial products are recombined with power-of-two shifts.  This
module is the software model of that mode for our TD-AM.  The integer
matrix product

    ``Y = X @ W.T``    (activations ``X``, stationary weights ``W``)

is computed **exactly** -- bit-identical to
``X.astype(int64) @ W.T.astype(int64)`` -- by one kernel: float BLAS
with an exactness guarantee.  Every partial sum is an integer bounded
by ``max|X| * max|W| * K``, so fp32 is exact below ``2**24`` and fp64
below ``2**53``; operands beyond that fall back to an int64 matmul.
The plane-pair decomposition changes the fabric's time and energy, not
the product, so it lives in the cost model: :meth:`MVMPlan.cost`
charges each plane pair one 2-step chain evaluation per stage tile
plus a TDC conversion, and every output row a readout slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.telemetry import metrics as _metrics
from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM

__all__ = [
    "E_READOUT",
    "MAX_OPERAND_BITS",
    "MVMCost",
    "MVMPlan",
    "T_READOUT_PER_CLASS",
    "T_TDC_CONVERSION",
    "infer_operand_bits",
    "mvm",
]

#: Widest weight the fabric stores (one multi-bit cell level per
#: element); activations are streamed and may be wider.
MAX_OPERAND_BITS = 8

#: Time to convert one chain's delay into a digital count (s) -- one
#: TDC conversion slot per array shot.  Canonical value shared with the
#: HDC mapping (:mod:`repro.hdc.mapping` imports it from here).
T_TDC_CONVERSION = 3.5e-9

#: Readout/aggregation slot per output row (s).
T_READOUT_PER_CLASS = 1.5e-9

#: Energy of reading out and accumulating one output row's count (J).
E_READOUT = 2e-15

#: Expected fraction of set bits surviving the AND of two bit-planes --
#: the activity factor of a plane-pair shot (two independent ~0.5-dense
#: planes).  Only feeds the energy model, never the arithmetic.
_PLANE_AND_ACTIVITY = 0.25

# Telemetry instruments (dormant unless repro.telemetry is enabled).
_REG = _metrics.get_registry()
_MVM_OPS = _REG.counter("mvm_ops_total", "Integer MVM products served")
_MVM_MACS = _REG.counter(
    "mvm_macs_total", "Integer multiply-accumulates computed by MVM calls"
)
_MVM_LATENCY = _REG.histogram(
    "mvm_modeled_latency_seconds",
    "Modeled fabric latency per MVM call (all plane passes)",
)


def infer_operand_bits(values: np.ndarray) -> Tuple[int, bool]:
    """Minimal ``(bits, signed)`` representation covering an operand.

    Unsigned operands get the smallest width holding their maximum;
    anything with a negative entry is sized for two's complement.  An
    empty operand is 1-bit unsigned.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 1, False
    lo = int(arr.min())
    hi = int(arr.max())
    if lo >= 0:
        return max(1, int(hi).bit_length()), False
    bits = 1 + max(
        (-lo - 1).bit_length(),
        hi.bit_length(),
    )
    return max(2, bits), True


def _validate_operand(
    arr: np.ndarray, bits: int, signed: bool, name: str
) -> None:
    """Raise unless every value fits the stated width/signedness."""
    if not 1 <= bits:
        raise ValueError(f"{name} bits must be >= 1, got {bits}")
    if arr.size == 0:
        return
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (
        0, (1 << bits) - 1
    )
    amin, amax = int(arr.min()), int(arr.max())
    if amin < lo or amax > hi:
        kind = "signed" if signed else "unsigned"
        raise ValueError(
            f"{name} values [{amin}, {amax}] exceed {bits}-bit {kind} "
            f"range [{lo}, {hi}]"
        )


def _operand_magnitude(bits: int, signed: bool) -> int:
    """Largest absolute value a ``(bits, signed)`` operand can hold."""
    return (1 << (bits - 1)) if signed else (1 << bits) - 1


@dataclass(frozen=True)
class MVMCost:
    """Modeled fabric latency/energy of one bit-serial MVM call.

    Attributes:
        plane_passes: Weight-plane x activation-plane array shots per
            activation vector.
        tiles: Chain tiles covering the shared inner dimension.
        latency_s: Total modeled latency of the call (bit-serial passes
            are sequential; the batch pipelines through the array).
        energy_j: Total energy of the call.
        energy_breakdown_j: Energy per mechanism (array shots, TDC
            conversions, readout accumulation).
    """

    plane_passes: int
    tiles: int
    latency_s: float
    energy_j: float
    energy_breakdown_j: Dict[str, float]


class MVMPlan:
    """Weight-stationary integer MVM: ``y = x @ weights.T``, exact.

    Validates and stores the weight matrix once (the fabric's one-time
    program step) and serves activation batches through one exact GEMM;
    the float cast of the weights it needs is built on first use and
    reused.

    Args:
        weights: Integer weight matrix, shape ``(n_out, n_in)``.
        bits: Stored weight width (1..8); inferred from the data when
            omitted.
        signed: Whether weights are two's-complement; inferred when
            omitted.
        config: Fabric design point for :meth:`cost`; defaults to the
            1-bit-cell variant of the fig. 8 system point.
    """

    def __init__(
        self,
        weights: np.ndarray,
        bits: Optional[int] = None,
        signed: Optional[bool] = None,
        config: Optional[TDAMConfig] = None,
    ) -> None:
        w = np.asarray(weights)
        if w.ndim != 2:
            raise ValueError(
                f"weights must be 2-D (n_out, n_in), got shape {w.shape}"
            )
        if w.shape[1] < 1:
            raise ValueError("weights need n_in >= 1")
        if not np.issubdtype(w.dtype, np.integer):
            raise TypeError(
                f"weights must be an integer array, got dtype {w.dtype}"
            )
        inf_bits, inf_signed = infer_operand_bits(w)
        self.weight_bits = inf_bits if bits is None else int(bits)
        self.signed = inf_signed if signed is None else bool(signed)
        if self.weight_bits > MAX_OPERAND_BITS:
            raise ValueError(
                f"weight bits must be <= {MAX_OPERAND_BITS}, got "
                f"{self.weight_bits}"
            )
        _validate_operand(w, self.weight_bits, self.signed, "weight")
        self.weights = np.ascontiguousarray(w, dtype=np.int64)
        self.n_out, self.n_in = self.weights.shape
        self.config = config if config is not None else TDAMConfig(
            bits=1, n_stages=128, vdd=0.6
        )
        self._float_cast: Dict[type, np.ndarray] = {}
        self._timing: Optional[TimingEnergyModel] = None

    # ------------------------------------------------------------------
    # Product
    # ------------------------------------------------------------------
    def matmul(
        self,
        activations: np.ndarray,
        bits: Optional[int] = None,
        signed: Optional[bool] = None,
    ) -> np.ndarray:
        """Exact integer product ``activations @ weights.T`` (int64).

        Args:
            activations: Integer activations, shape ``(S, n_in)`` (a
                single ``(n_in,)`` vector yields a ``(n_out,)`` result,
                matching numpy matmul semantics).
            bits: Activation width; inferred when omitted.
            signed: Activation signedness; inferred when omitted.

        Returns:
            int64 products, shape ``(S, n_out)``; bit-identical to
            ``activations.astype(int64) @ weights.T``: float32 BLAS when
            the partial-sum bound ``max|x| * max|w| * n_in`` is at most
            ``2**24``, float64 up to ``2**53``, int64 beyond.
        """
        acts = np.asarray(activations)
        squeeze = acts.ndim == 1
        if squeeze:
            acts = acts[None, :]
        if acts.ndim != 2 or acts.shape[1] != self.n_in:
            raise ValueError(
                f"activations must be (S, {self.n_in}), got shape "
                f"{np.asarray(activations).shape}"
            )
        if not np.issubdtype(acts.dtype, np.integer):
            raise TypeError(
                f"activations must be integers, got dtype {acts.dtype}"
            )
        inf_bits, inf_signed = infer_operand_bits(acts)
        a_bits = inf_bits if bits is None else int(bits)
        a_signed = inf_signed if signed is None else bool(signed)
        _validate_operand(acts, a_bits, a_signed, "activation")
        if acts.shape[0] == 0:
            return np.zeros((0, self.n_out), dtype=np.int64)
        bound = (
            _operand_magnitude(a_bits, a_signed)
            * _operand_magnitude(self.weight_bits, self.signed)
            * self.n_in
        )
        if bound <= 2**53:
            dtype = np.float32 if bound <= 2**24 else np.float64
            cast = self._float_cast.get(dtype)
            if cast is None:
                cast = self._float_cast[dtype] = self.weights.astype(dtype)
            out = np.matmul(acts.astype(dtype), cast.T).astype(np.int64)
        else:
            out = acts.astype(np.int64) @ self.weights.T
        if _TM.enabled:
            self._record(acts.shape[0], a_bits)
        return out[0] if squeeze else out

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.matmul(activations)

    # ------------------------------------------------------------------
    # Fabric timing/energy model
    # ------------------------------------------------------------------
    def _timing_model(self) -> TimingEnergyModel:
        if self._timing is None:
            self._timing = TimingEnergyModel(self.config)
        return self._timing

    def cost(
        self, activation_bits: int = 8, n_batch: int = 1
    ) -> MVMCost:
        """Modeled fabric latency/energy of one MVM call.

        Each weight-plane x activation-plane pair is one 2-step array
        shot per stage tile (the AND is the conduction decision, the
        popcount the TDC count); shots are bit-serial while the batch
        pipelines through, and every output row pays a readout slot.

        Args:
            activation_bits: Bit-planes per activation element.
            n_batch: Activation vectors served by the call.
        """
        if activation_bits < 1:
            raise ValueError(
                f"activation_bits must be >= 1, got {activation_bits}"
            )
        if n_batch < 0:
            raise ValueError(f"n_batch must be >= 0, got {n_batch}")
        timing = self._timing_model()
        n = self.config.n_stages
        tiles = math.ceil(self.n_in / n)
        passes = self.weight_bits * activation_bits
        active = int(round(_PLANE_AND_ACTIVITY * n))
        shot = timing.search_cost(active, include_tdc=True)
        shots = passes * tiles
        latency = n_batch * (
            shots * (shot.delay_s + T_TDC_CONVERSION)
            + self.n_out * T_READOUT_PER_CLASS
        )
        e_array = n_batch * shots * self.n_out * shot.energy_j
        e_tdc = 0.0  # folded into the per-shot search_cost above
        e_readout = n_batch * passes * self.n_out * E_READOUT
        breakdown = {
            "array": e_array,
            "tdc": e_tdc,
            "readout": e_readout,
        }
        return MVMCost(
            plane_passes=passes,
            tiles=tiles,
            latency_s=latency,
            energy_j=sum(breakdown.values()),
            energy_breakdown_j=breakdown,
        )

    def _record(self, n_batch: int, a_bits: int) -> None:
        cost = self.cost(activation_bits=a_bits, n_batch=n_batch)
        _MVM_OPS.inc()
        _MVM_MACS.inc(float(n_batch) * self.n_out * self.n_in)
        _MVM_LATENCY.observe(cost.latency_s)
        _emit_probe(
            "mvm.matmul",
            n_out=self.n_out,
            n_in=self.n_in,
            n_batch=n_batch,
            weight_bits=self.weight_bits,
            activation_bits=a_bits,
            latency_s=cost.latency_s,
            energy_j=cost.energy_j,
        )


def mvm(
    a: np.ndarray,
    b: np.ndarray,
    a_bits: Optional[int] = None,
    b_bits: Optional[int] = None,
) -> np.ndarray:
    """Exact integer matrix product ``a @ b`` on the fabric.

    Convenience wrapper building a one-shot :class:`MVMPlan` around
    ``b`` (weight-stationary callers should hold a plan instead and
    amortize the weight cast).  A 1-D ``a`` is treated as a single row
    vector and the result squeezed back to 1-D.

    Args:
        a: Integer left operand, shape ``(M, K)`` or ``(K,)``.
        b: Integer right operand, shape ``(K, N)``.
        a_bits: Width of ``a`` (inferred when omitted).
        b_bits: Width of ``b`` (inferred when omitted).

    Returns:
        int64 products, bit-identical to
        ``a.astype(int64) @ b.astype(int64)``.
    """
    b_arr = np.asarray(b)
    if b_arr.ndim != 2:
        raise ValueError(f"b must be 2-D (K, N), got shape {b_arr.shape}")
    if not np.issubdtype(b_arr.dtype, np.integer):
        raise TypeError(f"b must be an integer array, got dtype {b_arr.dtype}")
    plan = MVMPlan(b_arr.T, bits=b_bits)
    return plan.matmul(np.asarray(a), bits=a_bits)
