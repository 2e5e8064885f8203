"""Extension experiment: retention and endurance of the TD-AM.

Not a paper figure -- the paper's Monte Carlo covers write-time variation
only -- but the natural deployment question for an NVM associative
memory: how long do the stored models stay searchable, and how many
rewrites does the array survive?

Three studies:

1. **match-margin vs. time**: the worst-case margin between an aged
   matching cell and its (fixed) search voltage, and the retention-
   limited lifetime where it collapses;
2. **search accuracy vs. time**: Hamming-distance corruption of an aged
   array, measured with the same vectorized machinery as Fig. 6;
3. **window vs. cycles**: endurance-driven memory-window narrowing and
   the cycle budget before the 2-bit ladder no longer fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.devices.nonideal import (
    TEN_YEARS_S,
    EnduranceModel,
    RetentionModel,
    aged_match_margin,
    retention_limited_lifetime_s,
)
from repro.experiments._instrument import instrumented

#: Log-spaced retention checkpoints: 1 s .. 10 years.
DEFAULT_TIMES_S = (1.0, 3.6e3, 8.64e4, 2.6e6, 3.2e7, TEN_YEARS_S)


@dataclass
class RetentionRecord:
    """One retention checkpoint.

    Attributes:
        t_seconds: Age of the stored data.
        polarization_fraction: Remaining polarization.
        match_margin_v: Worst-case false-conduction margin.
        distance_rmse: RMS error of decoded Hamming distances vs. ideal
            on a random workload.
        exact_fraction: Fraction of searches decoding the exact distance.
        distance_rmse_compensated: Same workload with the aging-aware
            search-line re-bias of
            :func:`repro.devices.nonideal.compensated_vsl_levels`.
        exact_fraction_compensated: Exact-search fraction with the
            compensated ladder.
    """

    t_seconds: float
    polarization_fraction: float
    match_margin_v: float
    distance_rmse: float
    exact_fraction: float
    distance_rmse_compensated: float
    exact_fraction_compensated: float


@dataclass
class RetentionResult:
    """The retention study output."""

    records: List[RetentionRecord]
    lifetime_s: float
    config: TDAMConfig


@instrumented("retention")
def run_retention_study(
    times_s: Sequence[float] = DEFAULT_TIMES_S,
    retention: Optional[RetentionModel] = None,
    config: Optional[TDAMConfig] = None,
    n_rows: int = 16,
    n_queries: int = 24,
    seed: int = 31,
) -> RetentionResult:
    """Measure search fidelity of an aging array.

    The aged V_TH shifts are injected through the array's variation
    offsets (deterministic shifts here, not random draws), so comparison
    flips happen exactly where the aged margin crosses the switch point.
    """
    config = config or TDAMConfig(n_stages=32)
    retention = retention or RetentionModel(params=config.fefet)
    rng = np.random.default_rng(seed)
    stored = rng.integers(0, config.levels, size=(n_rows, config.n_stages))
    queries = rng.integers(0, config.levels, size=(n_queries, config.n_stages))
    vth = np.array(config.vth_levels)
    levels = config.levels
    ideal = (stored[None, :, :] != queries[:, None, :]).sum(axis=2)

    def measure(array: FastTDAMArray) -> "tuple[float, float]":
        err = array.search_batch(queries).hamming_distances - ideal
        errors = err.ravel().astype(float)
        exact = int((err == 0).all(axis=1).sum())
        return float(np.sqrt((errors**2).mean())), exact / n_queries

    records: List[RetentionRecord] = []
    for t in times_s:
        array = FastTDAMArray(config, n_rows=n_rows)
        array.write_all(stored)
        # Deterministic aging shifts per device, by programmed state.
        fa_states = stored
        fb_states = levels - 1 - stored
        off_a = retention.vth_shifts(vth[fa_states].reshape(-1), t)
        off_b = retention.vth_shifts(vth[fb_states].reshape(-1), t)
        array.set_vth_offsets(
            off_a.reshape(stored.shape), off_b.reshape(stored.shape)
        )
        rmse, exact = measure(array)
        # Re-run with the aging-aware search-line ladder.
        from repro.devices.nonideal import compensated_vsl_levels

        array._vsl = compensated_vsl_levels(config.vth_levels, retention, t)
        rmse_comp, exact_comp = measure(array)
        records.append(
            RetentionRecord(
                t_seconds=float(t),
                polarization_fraction=retention.polarization_fraction(t),
                match_margin_v=aged_match_margin(
                    config.vth_levels, config.vsl_levels, retention, t
                ),
                distance_rmse=rmse,
                exact_fraction=exact,
                distance_rmse_compensated=rmse_comp,
                exact_fraction_compensated=exact_comp,
            )
        )
    lifetime = retention_limited_lifetime_s(
        config.vth_levels, config.vsl_levels, retention
    )
    return RetentionResult(records=records, lifetime_s=lifetime, config=config)


def format_retention(result: RetentionResult) -> str:
    """Text rendering of the retention study."""
    rows = [
        {
            "t": _format_age(r.t_seconds),
            "polarization": r.polarization_fraction,
            "margin_mV": r.match_margin_v * 1e3,
            "dist_rmse": r.distance_rmse,
            "exact": r.exact_fraction,
            "rmse_comp": r.distance_rmse_compensated,
            "exact_comp": r.exact_fraction_compensated,
        }
        for r in result.records
    ]
    body = format_table(rows, title="Extension: retention of the stored model")
    years = result.lifetime_s / (365.25 * 24 * 3600)
    return f"{body}\nretention-limited lifetime: {years:.0f} years"


@dataclass
class EnduranceRecord:
    """One endurance checkpoint.

    Attributes:
        n_cycles: Program/erase cycles.
        window_fraction: Memory window vs. pristine.
        write_noise_mv: Cycle-to-cycle write sigma.
        ladder_fits: Whether the configured V_TH ladder still fits the
            narrowed window.
    """

    n_cycles: float
    window_fraction: float
    write_noise_mv: float
    ladder_fits: bool


@instrumented("endurance")
def run_endurance_study(
    cycles: Sequence[float] = (1e2, 1e4, 1e6, 1e8, 1e10),
    endurance: Optional[EnduranceModel] = None,
    config: Optional[TDAMConfig] = None,
) -> List[EnduranceRecord]:
    """Window narrowing and write noise across the cycling range."""
    config = config or TDAMConfig()
    endurance = endurance or EnduranceModel(params=config.fefet)
    low, high = config.vth_window
    needed = high - low
    records = []
    for n in cycles:
        window = endurance.window_after(n)
        records.append(
            EnduranceRecord(
                n_cycles=float(n),
                window_fraction=endurance.window_fraction(n),
                write_noise_mv=endurance.write_noise_sigma_v(n) * 1e3,
                ladder_fits=window >= needed,
            )
        )
    return records


def format_endurance(records: List[EnduranceRecord]) -> str:
    """Text rendering of the endurance study."""
    rows = [
        {
            "cycles": f"{r.n_cycles:.0e}",
            "window": r.window_fraction,
            "write_noise_mV": r.write_noise_mv,
            "ladder_fits": "yes" if r.ladder_fits else "NO",
        }
        for r in records
    ]
    return format_table(rows, title="Extension: endurance of the array")


def _format_age(t_seconds: float) -> str:
    if t_seconds < 60:
        return f"{t_seconds:.0f}s"
    if t_seconds < 3.6e3:
        return f"{t_seconds / 60:.0f}min"
    if t_seconds < 8.64e4:
        return f"{t_seconds / 3.6e3:.0f}h"
    if t_seconds < 3.2e7:
        return f"{t_seconds / 8.64e4:.0f}d"
    return f"{t_seconds / 3.15576e7:.1f}y"


if __name__ == "__main__":
    from repro.cli import emit

    emit(format_retention(run_retention_study()))
    emit()
    emit(format_endurance(run_endurance_study()))
