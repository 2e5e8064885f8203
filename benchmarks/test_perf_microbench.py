"""Performance micro-benchmarks of the hot paths.

Unlike the figure benches (one pedantic round each), these use real
pytest-benchmark statistics so performance regressions in the core data
paths are visible: the vectorized array search, the analytic cost model,
the encoder, and the vectorized transient step.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.core.array import FastTDAMArray
from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel
from repro.core.netlist_builder import build_chain_circuit
from repro.experiments.fig6_montecarlo import Fig6Trial
from repro.hdc.encoder import RandomProjectionEncoder
from repro.spice.montecarlo import run_monte_carlo
from repro.spice.transient import simulate

FIG8 = TDAMConfig.fig8_system()

#: The batched-search reference workload of the bench report: a Fig. 8
#: tile against a 256-query batch.
N_QUERIES = 256


@pytest.fixture(scope="module")
def loaded_array():
    array = FastTDAMArray(FIG8, n_rows=26)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(26, 128)))
    return array, rng.integers(0, 4, size=128)


@pytest.fixture(scope="module")
def query_batch():
    return np.random.default_rng(3).integers(0, 4, size=(N_QUERIES, 128))


def test_perf_fast_array_search(benchmark, loaded_array):
    """One Fig. 8-shaped tile search (26 rows x 128 stages)."""
    array, query = loaded_array
    result = benchmark(array.search, query)
    assert result.hamming_distances.shape == (26,)


def test_perf_search_batch(benchmark, loaded_array, query_batch):
    """256 queries through the batched kernel (26 rows x 128 stages)."""
    array, _ = loaded_array
    array.search_batch(query_batch)  # build the level tables up front
    result = benchmark(array.search_batch, query_batch)
    assert result.hamming_distances.shape == (N_QUERIES, 26)


def test_perf_search_loop_baseline(benchmark, loaded_array, query_batch):
    """The same 256 queries through a per-query Python loop of search().

    The baseline the batched kernel is measured against in
    ``tools/bench_report.py``; kept as a bench so the ratio stays
    visible in pytest-benchmark output too.
    """
    array, _ = loaded_array

    def loop():
        return [array.search(q) for q in query_batch]

    results = benchmark.pedantic(loop, rounds=3, iterations=1,
                                 warmup_rounds=1)
    assert len(results) == N_QUERIES


def test_perf_monte_carlo_serial(benchmark):
    """A 32-trial Fig. 6 Monte Carlo cell, serial driver."""
    trial = Fig6Trial(config=TDAMConfig(), sigma_mv=30.0)

    def run():
        return run_monte_carlo(trial, n_runs=32, seed=7)

    result = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert len(result.samples) == 32


def test_perf_search_batch_telemetry_enabled(benchmark, loaded_array,
                                             query_batch):
    """The batched kernel with telemetry ON (spans + metrics + probes).

    Not gated -- recorded so the enabled-mode cost stays visible next to
    the disabled numbers in the bench report.
    """
    array, _ = loaded_array
    array.search_batch(query_batch)
    telemetry.enable()
    try:
        result = benchmark(array.search_batch, query_batch)
    finally:
        telemetry.reset()
    assert result.hamming_distances.shape == (N_QUERIES, 26)


def test_disabled_telemetry_overhead_under_3_percent(loaded_array,
                                                     query_batch):
    """ISSUE acceptance gate: the dormant instrumentation on the hot
    ``search_batch`` path costs < 3% vs the bare kernel.

    The wrapper (one ``STATE.enabled`` check) is timed against the
    un-instrumented ``_search_batch_impl`` it delegates to, min-of-N on
    interleaved rounds so machine noise hits both sides equally.  A
    small absolute floor keeps the ratio meaningful if the kernel ever
    gets fast enough for per-call timing jitter to dominate.
    """
    array, _ = loaded_array
    telemetry.disable()
    array.search_batch(query_batch)  # build the level tables up front

    rounds, reps = 7, 3

    def best(fn):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(reps):
                fn(query_batch)
            times.append((time.perf_counter() - start) / reps)
        return min(times)

    # Warm both paths, then interleave the measurements.
    array._search_batch_impl(query_batch)
    t_bare = best(array._search_batch_impl)
    t_wrapped = best(array.search_batch)
    t_bare = min(t_bare, best(array._search_batch_impl))
    t_wrapped = min(t_wrapped, best(array.search_batch))

    overhead = t_wrapped / t_bare - 1.0
    slack_s = 20e-6  # absolute guard: one boolean check costs ~ns
    assert t_wrapped <= t_bare * 1.03 + slack_s, (
        f"disabled-telemetry overhead {overhead * 100:.2f}% "
        f"(wrapped {t_wrapped * 1e6:.1f} us vs bare {t_bare * 1e6:.1f} us) "
        "exceeds the 3% budget"
    )


def test_perf_analytic_cost_model(benchmark):
    """Full search-cost evaluation at one design point."""
    model = TimingEnergyModel(FIG8)
    cost = benchmark(model.search_cost, 64)
    assert cost.energy_j > 0


def test_perf_encoder(benchmark):
    """Encoding a 64-sample batch into D=2048."""
    encoder = RandomProjectionEncoder(617, 2048, seed=0)
    batch = np.random.default_rng(2).normal(size=(64, 617)).astype(np.float32)
    encoded = benchmark(encoder.encode, batch)
    assert encoded.shape == (64, 2048)


def test_perf_record_encoder(benchmark):
    """Record-based encode of a 32-sample batch (one-hot MVM path)."""
    from repro.hdc.encoder import RecordEncoder

    encoder = RecordEncoder(64, 1024, n_levels=16, seed=0)
    batch = np.random.default_rng(4).uniform(-1, 1, size=(32, 64))
    encoded = benchmark(encoder.encode, batch)
    assert encoded.shape == (32, 1024)


def test_perf_mvm_dispatch(benchmark):
    """An 8b x 8b MVM product (256 x 617 weights, 32 acts)."""
    from repro.core.mvm import MVMPlan

    rng = np.random.default_rng(5)
    plan = MVMPlan(
        rng.integers(-128, 128, size=(256, 617), dtype=np.int64),
        bits=8, signed=True,
    )
    acts = rng.integers(0, 256, size=(32, 617), dtype=np.int64)
    plan.matmul(acts)  # warm: build the weight cast
    out = benchmark(plan.matmul, acts)
    assert out.shape == (32, 256)


def test_perf_transient_chain_step(benchmark):
    """A short vectorized transient (4-stage chain, 100 steps)."""
    config = TDAMConfig(n_stages=4)
    net = build_chain_circuit(
        config, [0] * 4, [1, 0, 1, 0], rng=np.random.default_rng(1)
    )

    def run():
        return simulate(net.circuit, t_stop=0.4e-9, dt=4e-12,
                        v_init=net.v_init)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.newton_iterations > 0
