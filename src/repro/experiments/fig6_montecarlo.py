"""Fig. 6: Monte Carlo delay distributions under FeFET V_TH variation.

The paper's worst-case robustness experiment: every stage of a 64- or
128-stage chain mismatches, uniform V_TH variation of 10..60 mV sigma is
injected into every FeFET, and the distribution of total chain delay is
examined against the half-LSB sensing margin.

The worst-case query uses the *maximum* level distance (stored 0 vs.
query ``L-1``) so the conducting FeFETs sit far from their switching
margin and the experiment isolates the delay-variability mechanism (the
paper's claim is precisely that delay spread stays within the sensing
margin; comparison *flips* are a separate failure mode exercised by the
precision-margin ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.array import FastTDAMArray, _budget_chunk
from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.core.sensing import MarginReport, SensingAnalysis
from repro.devices.variation import VariationModel
from repro.spice.montecarlo import MonteCarloResult, trial_generators
from repro.experiments._instrument import instrumented


@dataclass(frozen=True)
class Fig6Trial:
    """One Fig. 6 Monte Carlo trial: a one-row array, written and searched.

    The one-trial reference of :func:`worst_case_delays`, which computes
    the same samples as the rows of one array.

    Attributes:
        config: Design point (already at the evaluated stage count).
        sigma_mv: Uniform V_TH sigma injected into every FeFET.
    """

    config: TDAMConfig
    sigma_mv: float

    def __call__(self, rng: np.random.Generator) -> float:
        variation = VariationModel(
            sigma_mv=float(self.sigma_mv), seed=int(rng.integers(2**31))
        )
        array = FastTDAMArray(self.config, n_rows=1, variation=variation)
        array.write(0, [0] * self.config.n_stages)
        query = [self.config.levels - 1] * self.config.n_stages
        return float(array.search(query).delays_s[0])


@dataclass
class Fig6Cell:
    """One (chain length, sigma) Monte Carlo condition."""

    n_stages: int
    sigma_mv: float
    mc: MonteCarloResult
    margin: MarginReport


@dataclass
class Fig6Result:
    """All Monte Carlo conditions of the Fig. 6 experiment."""

    cells: List[Fig6Cell]
    n_runs: int


def worst_case_delays(
    config: TDAMConfig, sigma_mv: float, n_runs: int, seed: Optional[int]
) -> np.ndarray:
    """Worst-case chain delays (s) of ``n_runs`` trials, one per array row.

    Trial ``i`` draws what ``Fig6Trial(config, sigma_mv)`` draws from
    generator ``i`` of :func:`~repro.spice.montecarlo.trial_generators`:
    a variation seed, then the V_TH shifts of a row storing level 0,
    F_A then F_B, in the order a one-row write draws them.  The trials'
    shifts become the offsets of one array whose rows all store level
    0, and one query at level ``L - 1`` searches them together, so
    sample ``i`` equals that of
    ``run_monte_carlo(Fig6Trial(config, sigma_mv), n_runs, seed)`` bit
    for bit.  Trials are built in blocks of rows whose tables fit the
    batched kernels' memory budget, so memory does not grow with
    ``n_runs``.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    n = config.n_stages
    top = config.levels - 1
    states = np.repeat([0, top], n)
    query = np.full((1, n), top)
    # Peak bytes per row under tracemalloc: five (L, N) float tensors
    # of the level-table build and ten (N,) float vectors (levels,
    # shifts, offsets, thresholds).
    block = _budget_chunk(8 * n * (5 * config.levels + 10))
    rngs = trial_generators(seed, n_runs)
    delays = np.empty(n_runs)
    for start in range(0, n_runs, block):
        rows = min(block, n_runs - start)
        shifts = np.stack([
            VariationModel(
                sigma_mv=float(sigma_mv), seed=int(next(rngs).integers(2**31))
            ).draw(states).vth_shifts
            for _ in range(rows)
        ])
        array = FastTDAMArray(config, n_rows=rows)
        array.write_all(np.zeros((rows, n), dtype=np.int64))
        array.set_vth_offsets(shifts[:, :n], shifts[:, n:])
        delays[start:start + rows] = array.search_batch(query).delays_s[0]
    return delays


@instrumented("fig6")
def run_fig6(
    stage_counts: Sequence[int] = (64, 128),
    sigmas_mv: Sequence[float] = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0),
    n_runs: int = 500,
    config: Optional[TDAMConfig] = None,
    seed: int = 42,
) -> Fig6Result:
    """Run the Monte Carlo delay-distribution study.

    Each (chain length, sigma) cell is ``n_runs`` trials of
    :func:`worst_case_delays` under the same master seed.
    """
    base = config or TDAMConfig()
    cells: List[Fig6Cell] = []
    for n_stages in stage_counts:
        cfg = base.with_(n_stages=int(n_stages))
        timing = TimingEnergyModel(cfg)
        analysis = SensingAnalysis(cfg, timing)
        for sigma in sigmas_mv:
            mc = MonteCarloResult(
                samples=worst_case_delays(cfg, float(sigma), n_runs, seed),
                seed=seed,
            )
            margin = analysis.margin_report(mc.samples, int(n_stages))
            cells.append(
                Fig6Cell(
                    n_stages=int(n_stages),
                    sigma_mv=float(sigma),
                    mc=mc,
                    margin=margin,
                )
            )
    return Fig6Result(cells=cells, n_runs=n_runs)


def format_fig6(result: Fig6Result) -> str:
    """Text rendering of the distribution statistics per condition."""
    records = []
    for cell in result.cells:
        records.append(
            {
                "n_stages": cell.n_stages,
                "sigma_mV": cell.sigma_mv,
                "mean_ns": cell.mc.mean * 1e9,
                "std_ps": cell.mc.std * 1e12,
                "nominal_ns": cell.margin.nominal_delay_s * 1e9,
                "margin_ps": cell.margin.margin_s * 1e12,
                "yield": cell.margin.yield_fraction,
            }
        )
    return format_table(
        records,
        title=(
            "Fig. 6: worst-case (all-mismatch) delay distributions under "
            f"V_TH variation ({result.n_runs} runs per condition)"
        ),
    )


if __name__ == "__main__":
    from repro.cli import emit

    emit(format_fig6(run_fig6()))
