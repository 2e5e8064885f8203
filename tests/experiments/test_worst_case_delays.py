"""The Fig. 6 rows function against the per-trial loop it replaces.

``worst_case_delays`` computes a Fig. 6 cell's trials as the rows of one
array; ``run_monte_carlo(Fig6Trial(...))`` builds and searches one
one-row array per trial.  Every sample must be equal, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDAMConfig
from repro.experiments import fig6_montecarlo
from repro.experiments.fig6_montecarlo import Fig6Trial, worst_case_delays
from repro.spice.montecarlo import run_monte_carlo


def _loop(config, sigma_mv, n_runs, seed):
    trial = Fig6Trial(config=config, sigma_mv=sigma_mv)
    return run_monte_carlo(trial, n_runs=n_runs, seed=seed).samples


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(1, 3),
    n_stages=st.integers(1, 160),
    sigma_mv=st.one_of(st.just(0.0), st.floats(1.0, 80.0)),
    n_runs=st.integers(1, 40),
    seed=st.integers(0, 2**63),
)
def test_rows_equal_the_trial_loop(bits, n_stages, sigma_mv, n_runs, seed):
    config = TDAMConfig(bits=bits, n_stages=n_stages)
    rows = worst_case_delays(config, sigma_mv, n_runs, seed)
    assert np.array_equal(rows, _loop(config, sigma_mv, n_runs, seed))


def test_trials_spanning_several_blocks(monkeypatch):
    # Blocks of 3 rows: 10 trials take four arrays.
    monkeypatch.setattr(fig6_montecarlo, "_budget_chunk", lambda nbytes: 3)
    config = TDAMConfig(n_stages=37)
    rows = worst_case_delays(config, 40.0, 10, 5)
    assert np.array_equal(rows, _loop(config, 40.0, 10, 5))


def test_rejects_zero_runs():
    with pytest.raises(ValueError, match="n_runs"):
        worst_case_delays(TDAMConfig(), 30.0, 0, 1)
