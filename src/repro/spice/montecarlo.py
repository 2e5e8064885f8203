"""Seeded Monte Carlo harness over circuit-level experiments.

The paper's Fig. 6 runs Monte Carlo over FeFET V_TH variation and reports
delay distributions.  This module provides the generic machinery: run a
user-supplied trial function over independently seeded RNG streams and
collect summary statistics.  The trial function owns circuit construction,
so the same harness drives both the full transient backend and the fast
analytic backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.telemetry.profile import emit_probe as _emit_probe
from repro.telemetry.state import STATE as _TM
from repro.telemetry.trace import span as _span


def trial_generators(
    seed: Optional[int], n_runs: int
) -> Iterator[np.random.Generator]:
    """The generators of trials ``0 .. n_runs - 1``, in order.

    Trial ``i`` draws from child ``i`` of
    ``SeedSequence(seed).spawn(n_runs)``: its stream depends on the
    master seed and its index alone, so every caller that takes its
    trials' streams from here draws the same numbers for trial ``i``,
    whether it evaluates trials one at a time or as the rows of one
    array.
    """
    for child in np.random.SeedSequence(seed).spawn(n_runs):
        yield np.random.default_rng(child)


@dataclass
class MonteCarloResult:
    """Samples plus summary statistics of one Monte Carlo experiment.

    Attributes:
        samples: The per-trial scalar outcomes.
        seed: Master seed of the run.
        failures: Number of trials that raised (excluded from samples).
    """

    samples: np.ndarray
    seed: Optional[int]
    failures: int = 0

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return float(self.samples.std(ddof=1))

    @property
    def coefficient_of_variation(self) -> float:
        """sigma/mu -- the relative spread the paper's Fig. 6 examines."""
        mean = self.mean
        if mean == 0:
            raise ValueError("coefficient of variation undefined for zero mean")
        return self.std / abs(mean)

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))

    def fraction_within(self, low: float, high: float) -> float:
        """Fraction of samples inside [low, high] -- sensing-margin yield."""
        inside = (self.samples >= low) & (self.samples <= high)
        return float(inside.mean())

    def histogram(self, bins: int = 30) -> Dict[str, np.ndarray]:
        counts, edges = np.histogram(self.samples, bins=bins)
        return {"counts": counts, "edges": edges}

    def summary(self) -> Dict[str, float]:
        return {
            "n": float(len(self.samples)),
            "mean": self.mean,
            "std": self.std,
            "min": float(self.samples.min()),
            "max": float(self.samples.max()),
            "p01": self.percentile(1),
            "p99": self.percentile(99),
            "failures": float(self.failures),
        }


def run_monte_carlo(
    trial: Callable[[np.random.Generator], float],
    n_runs: int,
    seed: Optional[int] = None,
    allow_failures: bool = False,
) -> MonteCarloResult:
    """Run ``trial`` over ``n_runs`` independent RNG streams, in order.

    Trial ``i`` gets the generator :func:`trial_generators` gives it,
    so a seeded run is reproducible and each sample is independent of
    the trial count.

    Args:
        trial: Function taking a seeded generator and returning a scalar
            outcome (e.g. a chain delay in seconds).
        n_runs: Number of trials.
        seed: Master seed of the trials' streams.
        allow_failures: When True, trials that raise are counted and
            skipped; when False the exception propagates.

    Returns:
        The collected :class:`MonteCarloResult`.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    start = time.perf_counter()
    samples: List[float] = []
    with _span("mc.run", n_runs=n_runs):
        for rng in trial_generators(seed, n_runs):
            try:
                samples.append(float(trial(rng)))
            except Exception:
                if not allow_failures:
                    raise
    if _TM.enabled:
        _emit_probe(
            "mc.run", n_runs=n_runs, elapsed_s=time.perf_counter() - start
        )
    if not samples:
        raise RuntimeError("all Monte Carlo trials failed")
    return MonteCarloResult(
        samples=np.array(samples), seed=seed, failures=n_runs - len(samples)
    )
