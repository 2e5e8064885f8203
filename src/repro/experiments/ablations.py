"""Ablation studies of the design choices DESIGN.md calls out.

1. **Variable capacitance vs. variable resistance** -- the paper's core
   robustness argument against [22]: putting the FeFET in the signal path
   makes delay exponentially sensitive to V_TH shifts, while the VC
   design couples variation only through the weak MN-residual path.
2. **2-step scheme vs. buffer-based chain** -- replacing the inverters
   with buffers avoids the two-pass operation but costs two extra
   transistors and an extra inverter load per stage.
3. **Cell precision vs. comparison margin** -- more bits per cell shrink
   the level spacing, so the same V_TH sigma flips more comparisons.
4. **Equal-area vs. uniform quantization** -- the paper's probability-
   aware quantizer against a plain uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.fefinfet import FeFinFETTimeDomainIMC
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.datasets.synthetic import Dataset, make_isolet_like
from repro.devices.variation import VariationModel
from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.quantize import quantize_equal_area, quantize_uniform
from repro.experiments.fig6_montecarlo import worst_case_delays
from repro.spice.montecarlo import MonteCarloResult, run_monte_carlo
from repro.experiments._instrument import instrumented


# ----------------------------------------------------------------------
# 1. Variable capacitance vs. variable resistance
# ----------------------------------------------------------------------
@dataclass
class VCvsVRRecord:
    """Delay variability of both chain styles at one sigma."""

    sigma_mv: float
    vc_delay_cv: float
    vr_delay_cv: float
    vr_worst_over_nominal: float


@instrumented("ablation_vc_vs_vr")
def run_ablation_vc_vs_vr(
    sigmas_mv: Sequence[float] = (10.0, 20.0, 40.0, 60.0),
    n_stages: int = 64,
    n_runs: int = 300,
    seed: int = 17,
) -> List[VCvsVRRecord]:
    """Coefficient of variation of chain delay, VC vs. VR, same sigma."""
    config = TDAMConfig(n_stages=n_stages)
    records: List[VCvsVRRecord] = []
    for sigma in sigmas_mv:

        def vr_trial(rng: np.random.Generator) -> float:
            chain = FeFinFETTimeDomainIMC(n_stages=n_stages)
            shifts = rng.normal(0.0, float(sigma) * 1e-3, size=n_stages)
            return chain.chain_delay(shifts)

        vc = MonteCarloResult(
            samples=worst_case_delays(config, float(sigma), n_runs, seed),
            seed=seed,
        )
        vr = run_monte_carlo(vr_trial, n_runs=n_runs, seed=seed)
        nominal_vr = FeFinFETTimeDomainIMC(n_stages=n_stages).nominal_delay()
        records.append(
            VCvsVRRecord(
                sigma_mv=float(sigma),
                vc_delay_cv=vc.coefficient_of_variation,
                vr_delay_cv=vr.coefficient_of_variation,
                vr_worst_over_nominal=float(vr.samples.max() / nominal_vr),
            )
        )
    return records


def format_ablation_vc_vs_vr(records: List[VCvsVRRecord]) -> str:
    rows = [
        {
            "sigma_mV": r.sigma_mv,
            "VC_delay_cv": r.vc_delay_cv,
            "VR_delay_cv": r.vr_delay_cv,
            "VR_worst/nominal": r.vr_worst_over_nominal,
        }
        for r in records
    ]
    return format_table(
        rows,
        title="Ablation 1: delay variability, variable-C vs. variable-R chain",
    )


# ----------------------------------------------------------------------
# 2. 2-step scheme vs. buffer-based chain
# ----------------------------------------------------------------------
@dataclass
class TwoStepComparison:
    """Cost comparison of the two chain organizations."""

    two_step_energy_j: float
    buffer_energy_j: float
    two_step_latency_s: float
    buffer_latency_s: float
    two_step_transistors: int
    buffer_transistors: int

    @property
    def energy_saving(self) -> float:
        return self.buffer_energy_j / self.two_step_energy_j

    @property
    def area_saving(self) -> float:
        return self.buffer_transistors / self.two_step_transistors


@instrumented("ablation_two_step")
def run_ablation_two_step(
    n_stages: int = 32,
    n_mismatch: int = 16,
    config: Optional[TDAMConfig] = None,
) -> TwoStepComparison:
    """Compare the 2-step inverter chain against a buffer-based chain.

    The buffer-based chain needs no edge-parity bookkeeping (a single
    pass evaluates every stage) but each stage carries two inverters:
    twice the intrinsic stage capacitance and delay, and two extra
    transistors per stage.
    """
    config = (config or TDAMConfig()).with_(n_stages=n_stages)
    model = TimingEnergyModel(config)
    ours = model.search_cost(n_mismatch)
    # Buffer-based: one pass, but double intrinsic delay and double the
    # inverter switching capacitance; load-cap and MN costs identical.
    buffer_latency = 2 * n_stages * model.d_inv + n_mismatch * model.d_c
    extra_inverter_energy = n_stages * model.c_stage * config.vdd**2
    buffer_energy = ours.energy_j + extra_inverter_energy
    # Per stage: ours = inverter(2T) + precharge(1T) + switch(1T) + 2 FeFET;
    # buffer-based adds one more inverter (2T).
    two_step_transistors = n_stages * (2 + 1 + 1 + 2)
    buffer_transistors = n_stages * (4 + 1 + 1 + 2)
    return TwoStepComparison(
        two_step_energy_j=ours.energy_j,
        buffer_energy_j=buffer_energy,
        two_step_latency_s=ours.delay_s,
        buffer_latency_s=buffer_latency,
        two_step_transistors=two_step_transistors,
        buffer_transistors=buffer_transistors,
    )


def format_ablation_two_step(result: TwoStepComparison) -> str:
    rows = [
        {
            "organization": "2-step inverter chain (this work)",
            "energy_fJ": result.two_step_energy_j * 1e15,
            "latency_ps": result.two_step_latency_s * 1e12,
            "transistors": result.two_step_transistors,
        },
        {
            "organization": "buffer-based chain",
            "energy_fJ": result.buffer_energy_j * 1e15,
            "latency_ps": result.buffer_latency_s * 1e12,
            "transistors": result.buffer_transistors,
        },
    ]
    return (
        format_table(rows, title="Ablation 2: 2-step vs. buffer-based chain")
        + f"\nenergy saving {result.energy_saving:.2f}x, "
        f"area saving {result.area_saving:.2f}x"
    )


# ----------------------------------------------------------------------
# 3. Cell precision vs. comparison margin
# ----------------------------------------------------------------------
@dataclass
class PrecisionMarginRecord:
    """Comparison-flip statistics at one precision/sigma point."""

    bits: int
    sigma_mv: float
    margin_v: float
    flip_rate: float


@instrumented("ablation_precision_margin")
def run_ablation_precision_margin(
    bits_list: Sequence[int] = (1, 2, 3, 4),
    sigmas_mv: Sequence[float] = (20.0, 40.0, 60.0),
    n_cells: int = 4000,
    seed: int = 23,
) -> List[PrecisionMarginRecord]:
    """Flip rate of adjacent-level comparisons vs. precision and sigma.

    Exercises the failure mode excluded from Fig. 6: a V_TH shift large
    enough to cross the conduction margin makes a cell mis-evaluate.  The
    margin is half a level step, so it halves per extra bit.
    """
    records: List[PrecisionMarginRecord] = []
    for bits in bits_list:
        config = TDAMConfig(bits=int(bits), n_stages=64)
        rng = np.random.default_rng(seed)
        for sigma in sigmas_mv:
            variation = VariationModel(
                sigma_mv=float(sigma), seed=int(rng.integers(2**31))
            )
            array = FastTDAMArray(
                config.with_(n_stages=min(n_cells, 1024)),
                n_rows=1,
                variation=variation,
            )
            n = array.config.n_stages
            flips = 0
            total = 0
            trials = max(1, n_cells // n)
            for _ in range(trials):
                stored_vals = rng.integers(0, config.levels, size=n)
                array.write(0, stored_vals)
                # Adjacent-level mismatches: the tightest margin case.
                query = np.where(
                    stored_vals < config.levels - 1,
                    stored_vals + 1,
                    stored_vals - 1,
                )
                detected = array.mismatch_matrix(query)[0]
                flips += int((~detected).sum())
                # Matches must stay matches.
                detected_eq = array.mismatch_matrix(stored_vals)[0]
                flips += int(detected_eq.sum())
                total += 2 * n
            records.append(
                PrecisionMarginRecord(
                    bits=int(bits),
                    sigma_mv=float(sigma),
                    margin_v=config.conduction_margin,
                    flip_rate=flips / total,
                )
            )
    return records


def format_ablation_precision_margin(
    records: List[PrecisionMarginRecord],
) -> str:
    rows = [
        {
            "bits": r.bits,
            "sigma_mV": r.sigma_mv,
            "margin_mV": r.margin_v * 1e3,
            "flip_rate": r.flip_rate,
        }
        for r in records
    ]
    return format_table(
        rows,
        title="Ablation 3: comparison flip rate vs. cell precision",
        floatfmt=".5f",
    )


# ----------------------------------------------------------------------
# 4. Equal-area vs. uniform quantization
# ----------------------------------------------------------------------
@dataclass
class QuantizerRecord:
    """Accuracy of both quantizers at one (bits, D) point."""

    bits: int
    dimension: int
    equal_area_accuracy: float
    uniform_accuracy: float
    reference_accuracy: float


@instrumented("ablation_quantizer")
def run_ablation_quantizer(
    bits_list: Sequence[int] = (1, 2, 3, 4),
    dimension: int = 2048,
    dataset: Optional[Dataset] = None,
    epochs: int = 6,
    seed: int = 7,
) -> List[QuantizerRecord]:
    """Equal-area vs. uniform quantization on an ISOLET-like task."""
    ds = dataset or make_isolet_like(800, 400)
    encoder = RandomProjectionEncoder(ds.n_features, dimension, seed=seed)
    clf = HDCClassifier(encoder, ds.n_classes).fit(
        ds.x_train, ds.y_train, epochs=epochs
    )
    reference = clf.accuracy(ds.x_test, ds.y_test)
    queries = clf.encode(ds.x_test)
    records: List[QuantizerRecord] = []
    for bits in bits_list:
        ea = quantize_equal_area(clf.prototypes, int(bits))
        un = quantize_uniform(clf.prototypes, int(bits))
        records.append(
            QuantizerRecord(
                bits=int(bits),
                dimension=dimension,
                equal_area_accuracy=ea.accuracy_cosine(queries, ds.y_test),
                uniform_accuracy=un.accuracy_cosine(queries, ds.y_test),
                reference_accuracy=reference,
            )
        )
    return records


def format_ablation_quantizer(records: List[QuantizerRecord]) -> str:
    rows = [
        {
            "bits": r.bits,
            "equal_area": r.equal_area_accuracy,
            "uniform": r.uniform_accuracy,
            "32b_reference": r.reference_accuracy,
        }
        for r in records
    ]
    return format_table(
        rows,
        title="Ablation 4: equal-area vs. uniform class-HV quantization",
        floatfmt=".3f",
    )


if __name__ == "__main__":
    from repro.cli import emit

    emit(format_ablation_vc_vs_vr(run_ablation_vc_vs_vr()))
    emit()
    emit(format_ablation_two_step(run_ablation_two_step()))
    emit()
    emit(format_ablation_precision_margin(run_ablation_precision_margin()))
    emit()
    emit(format_ablation_quantizer(run_ablation_quantizer()))
