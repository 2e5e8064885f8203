#!/usr/bin/env python
"""Benchmark report: batched-search and Monte Carlo throughput numbers.

Runs the performance microbench suite (``benchmarks/test_perf_microbench.py``)
plus two direct wall-clock studies, and writes ``BENCH_search.json``:

1. **Batched search vs per-query loop** on the Fig. 8-shaped reference
   workload (26 rows x 128 stages, 256 queries): queries/s of
   ``FastTDAMArray.search_batch`` against a Python loop of the scalar
   reference search ``fast_search`` in ``tests/oracles.py``
   (``search`` itself is a batch of one), and their ratio (the
   committed baseline asserts >= 10x), with every field compared.
2. **Monte Carlo as rows**: one Fig. 6 cell (200 trials at sigma
   30 mV) as the trial loop, one one-row array per trial, against
   ``worst_case_delays``, which ``run_fig6`` calls and which computes
   the same samples as the rows of one array; timed in alternating
   rounds, with sample equality asserted.
3. **Telemetry overhead**: ``search_batch`` wall clock at each
   telemetry tier -- disabled (dormant wrappers), metrics-only
   (tracing off), and full-trace (spans + metrics + probes) -- against
   the bare un-instrumented kernel; the disabled tier is reported as a
   median over interleaved rounds with its quartile spread.
   Optionally writes the metrics registry and a Chrome trace as CI
   artifacts.

4. **Count kernel**: the packed-popcount kernel that counts every batch
   against the per-query reference loop on the same workload, with
   bit-exactness asserted (counts, and ``search_batch`` against
   ``fast_search``); the tracked headline is
   ``packed_speedup_vs_loop``.  At the ``scan-topk`` benchmark
   workload's geometry (8194 rows x 128 stages, 32 queries, 2 bits) the
   XOR kernel, which counts in cache-sized query tiles, is compared
   with the one-fold reference in ``tests/oracles.py``: equality of
   both count kernels (gated), the ratio of the two calls' transients
   under ``tracemalloc`` (gated) and the ratio of their times over
   alternating rounds (reported).
5. **Top-k**: ``FastTDAMArray.top_k_batch`` (exact counts ranked
   directly) against ranking a full ``search_batch().top_k``, on the
   serving array (1024 rows x 128 stages, 32-query batches), with
   index-exact equality asserted; gated so top-k is never slower than
   ranking a full search.
6. **Resilient batches**: ``ResilientTDAMArray.search_batch`` against
   a loop of the row-by-row reference search in ``tests/oracles.py``
   (``search`` itself is a batch of one) on the HDC classifier's array
   (26 class rows + 2 spares x 2048 stages at V_DD = 0.6 V, 32-query
   batches), timed in alternating rounds (median ratio with its
   quartiles), with every field of each batch slice and of ``search``
   compared against the reference; gated at >= 8.1x.
7. **Clustered ANN**: the memmapped ``ClusteredTDAMIndex`` routed probe
   against the same index probing every cluster, on a million-row
   clustered ``noise=0.35`` corpus (``--ann-rows`` scales it down for
   CI): queries/s, recall@10 against exhaustive in-RAM ``top_k_batch``,
   and the nprobe=n_clusters bit-identity check.
8. **HDC encode**: the nonlinear ``RandomProjectionEncoder`` on the
   microbench workload (64 samples x 617 features -> D=2048) against
   the pre-rewrite rule (one GEMM, then ``cos(p + b) * sin(p)``) on the
   same weights, timed interleaved and gated at 1.08x, plus the
   quantized in-fabric variant's wall clock, worst-case error, and
   modeled fabric cost.
9. **MVM**: ``MVMPlan.matmul`` (the exact-by-bounds GEMM) against the
   int64 numpy loop on an 8b x 8b product, with bit-exactness asserted
   (gated).
10. **HDC query quantizer**: ``QuantizedModel.quantize_queries`` (one
    comparison per bin edge) against the ``np.digitize`` rule it
    replaced, on one encoded batch at the ``hdc-refresh`` benchmark
    workload's geometry, with level equality asserted; gated at 3x.
11. **Cluster init**: ``HDCluster._init_indices`` (one product per
    chosen centroid, a running maximum of exact keys) against
    re-scoring every chosen centroid at each greedy step, on the
    ``ann-probe`` benchmark workload's quantizer sample, with identical
    picks asserted; gated at 18.8x.

Regression gate.  With ``--baseline BENCH_search.json`` the report is
checked metric-by-metric against :data:`TRACKED_GATES`; ``--gate``
turns any failed check into a non-zero exit (the CI bench job fails),
and ``--compare-report`` writes the full comparison table as a JSON
artifact.  Every gate is an absolute bound or a flag, so the baseline
is printed beside each metric for reference only.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--output BENCH_search.json]
        [--skip-microbench] [--mc-runs N]
        [--metrics-out metrics.json] [--trace-out trace.json]
        [--baseline BENCH_search.json] [--gate]
        [--compare-report compare.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro import telemetry  # noqa: E402
from repro.core.array import FastTDAMArray  # noqa: E402
from repro.core.bitplane import (  # noqa: E402
    pack_bit_planes,
    pack_level_planes,
    pack_query_masks,
    packed_mismatch_counts,
    packed_xor_counts,
)
from repro.core.config import TDAMConfig  # noqa: E402
from repro.resilience.resilient import ResilientTDAMArray  # noqa: E402
from repro.experiments.fig6_montecarlo import (  # noqa: E402
    Fig6Trial,
    worst_case_delays,
)
from repro.spice.montecarlo import run_monte_carlo  # noqa: E402
from tests.oracles import (  # noqa: E402
    fast_search,
    one_shot_mismatch_counts,
    one_shot_xor_counts,
    resilient_search,
)

N_ROWS = 26
N_STAGES = 128
N_QUERIES = 256
# The top-k bench runs at the scan-topk benchmark workload's geometry
# (8192 rows x 128 stages, 32-query batches, k=10), where counting and
# ranking are the work; at the serving geometry (1024 rows) its speedup
# read 1.7-3.3 against a gate of 1, which could not fail.
TOPK_ROWS = 8192
TOPK_QUERIES = 32
TOPK_K = 10
# The tile study counts scan-topk's array as its service holds it:
# 8192 rows plus 2 spares.
TILE_ROWS = TOPK_ROWS + 2
# The resilient bench runs on the HDC classifier's array (the
# ``hdc-refresh`` benchmark workload: 26 classes, 2 spares, D = 2048).
RESILIENT_ROWS = 26
RESILIENT_SPARES = 2
RESILIENT_STAGES = 2048
RESILIENT_QUERIES = 32
# Alternating rounds of its loop/batch ratio: best-of timings of the two,
# taken apart, read 10.2-17.4 against a bound of 10 in slow host phases.
RESILIENT_ROUNDS = 10
# The HDC query bench runs at the ``hdc-refresh`` benchmark workload's
# geometry: 32 ISOLET-like samples x 617 features -> D = 2048, a 2-bit
# model, the in-fabric encoder.
HDC_QUERY_SAMPLES = 32
HDC_QUERY_DIMENSION = 2048
HDC_QUERY_BITS = 2
# The cluster-init bench runs on the ``ann-probe`` benchmark workload's
# quantizer sample: 8192 rows of the noise-0.35 clustered corpus at
# 100k rows x 64 stages, 128 clusters.
CLUSTER_INIT_ROWS = 100_000
CLUSTER_INIT_STAGES = 64
CLUSTER_INIT_CLUSTERS = 128
CLUSTER_INIT_SAMPLE = 8192


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` timed calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _same_fields(got, want) -> bool:
    """Whether every dataclass field of two search results is equal."""
    return all(
        np.array_equal(getattr(got, f.name), getattr(want, f.name))
        for f in dataclasses.fields(want)
    )


def _alternating_ratio(slow, fast, rounds: int, repeats: int) -> tuple:
    """Median and quartiles of ``slow``/``fast`` time ratios over
    ``rounds`` rounds, each the best of ``repeats`` calls of both, the
    side timed first alternating; also both sides' median times."""
    pairs = []
    for i in range(rounds):
        order = (slow, fast) if i % 2 == 0 else (fast, slow)
        times = {fn: _best_of(fn, repeats) for fn in order}
        pairs.append((times[slow], times[fast]))
    q25, median, q75 = np.percentile(
        [t_slow / t_fast for t_slow, t_fast in pairs], [25, 50, 75]
    )
    return (
        float(median),
        [float(q25), float(q75)],
        float(np.median([t for t, _ in pairs])),
        float(np.median([t for _, t in pairs])),
    )


def bench_search_batch(repeats: int = 5) -> dict:
    """Batched search vs a loop of the scalar reference ``fast_search``
    on the Fig. 8 reference workload; every field must equal it."""
    config = TDAMConfig.fig8_system()
    array = FastTDAMArray(config, n_rows=N_ROWS)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(N_ROWS, N_STAGES)))
    queries = rng.integers(0, 4, size=(N_QUERIES, N_STAGES))
    array.search_batch(queries)  # warm up

    t_batch = _best_of(lambda: array.search_batch(queries), repeats)
    t_loop = _best_of(
        lambda: [fast_search(array, q) for q in queries], max(2, repeats // 2)
    )
    batch = array.search_batch(queries)
    exact = all(
        _same_fields(batch.result(i), fast_search(array, q))
        for i, q in enumerate(queries)
    )
    return {
        "workload": f"{N_ROWS} rows x {N_STAGES} stages x {N_QUERIES} queries",
        "loop_s": t_loop,
        "batch_s": t_batch,
        "loop_queries_per_s": N_QUERIES / t_loop,
        "batch_queries_per_s": N_QUERIES / t_batch,
        "speedup": t_loop / t_batch,
        "bit_exact": exact,
    }


def bench_kernels(repeats: int = 30) -> dict:
    """The packed count kernel against the per-query reference loop.

    Times ``_counts_packed`` and ``_counts_loop`` on the committed
    reference workload and asserts they agree bit-for-bit (counts are
    exact integers, so *any* difference is a kernel bug, not float
    noise), as do ``search_batch`` and a loop of the scalar reference
    ``fast_search`` on every field.  The tracked gate is
    ``packed_speedup_vs_loop``.
    """
    config = TDAMConfig.fig8_system()
    array = FastTDAMArray(config, n_rows=N_ROWS)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(N_ROWS, N_STAGES)))
    queries = rng.integers(0, 4, size=(N_QUERIES, N_STAGES))
    array.search_batch(queries)  # warm up

    t_packed = _best_of(lambda: array._counts_packed(queries), repeats)
    t_loop = _best_of(
        lambda: array._counts_loop(queries), max(3, repeats // 6)
    )
    exact = bool(
        np.array_equal(array._counts_packed(queries), array._counts_loop(queries))
    )
    batch = array.search_batch(queries)
    exact = exact and all(
        _same_fields(batch.result(i), fast_search(array, query))
        for i, query in enumerate(queries)
    )
    return {
        "workload": f"{N_ROWS} rows x {N_STAGES} stages x {N_QUERIES} queries",
        "packed_s": t_packed,
        "loop_s": t_loop,
        "packed_speedup_vs_loop": t_loop / t_packed,
        "bit_exact": exact,
    }


def _transient_bytes(fn) -> int:
    """Peak bytes ``fn()`` allocates above what was live before it,
    under ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def bench_kernel_tiles(rounds: int = 10, repeats: int = 5) -> dict:
    """The tiled count kernels against their one-fold reference.

    At scan-topk's geometry (8194 rows x 128 stages, 32 queries, 2
    bits) ``packed_xor_counts`` and ``packed_mismatch_counts`` must
    equal the one-fold bodies in ``tests/oracles.py`` bit for bit.
    ``tile_peak_ratio`` divides the one-fold XOR call's transient by
    the tiled call's (deterministic; an untiled kernel reads 1.0), and
    ``tile_speedup`` is the median over ``rounds`` alternating rounds of
    the one-fold time over the tiled time, each the best of
    ``repeats`` calls.
    """
    rng = np.random.default_rng(1)
    stored = rng.integers(0, 4, size=(TILE_ROWS, N_STAGES))
    queries = rng.integers(0, 4, size=(TOPK_QUERIES, N_STAGES))
    s_bits = pack_bit_planes(stored, 2)
    q_bits = pack_bit_planes(queries, 2)
    planes = pack_level_planes(np.arange(4)[:, None, None] != stored)
    masks = pack_query_masks(queries, 4)

    def tiled():
        return packed_xor_counts(s_bits, q_bits)

    def one_shot():
        return one_shot_xor_counts(s_bits, q_bits)

    exact = bool(
        np.array_equal(tiled(), one_shot())
        and np.array_equal(
            packed_mismatch_counts(planes, masks),
            one_shot_mismatch_counts(planes, masks),
        )
    )
    speedup, quartiles, t_one_shot, t_tiled = _alternating_ratio(
        one_shot, tiled, rounds, repeats
    )
    tiled_bytes = _transient_bytes(tiled)
    one_shot_bytes = _transient_bytes(one_shot)
    return {
        "tile_workload": (
            f"{TILE_ROWS} rows x {N_STAGES} stages x {TOPK_QUERIES} "
            f"queries, 2 bits"
        ),
        "tiled_s": t_tiled,
        "one_shot_s": t_one_shot,
        "tile_speedup": speedup,
        "tile_speedup_quartiles": quartiles,
        "tiled_transient_bytes": tiled_bytes,
        "one_shot_transient_bytes": one_shot_bytes,
        "tile_peak_ratio": one_shot_bytes / tiled_bytes,
        "tile_bit_exact": exact,
    }


def bench_topk(k: int = TOPK_K, repeats: int = 10) -> dict:
    """Top-k over exact counts vs ranking a full search, same array."""
    config = TDAMConfig.fig8_system()
    array = FastTDAMArray(config, n_rows=TOPK_ROWS)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(TOPK_ROWS, N_STAGES)))
    queries = rng.integers(0, 4, size=(TOPK_QUERIES, N_STAGES))
    array.top_k_batch(queries, k)  # warm up

    t_search = _best_of(lambda: array.search_batch(queries), repeats)
    t_exhaustive = _best_of(
        lambda: array.search_batch(queries).top_k(k), repeats
    )
    t_top_k = _best_of(lambda: array.top_k_batch(queries, k), repeats)
    exact = bool(
        np.array_equal(
            array.top_k_batch(queries, k),
            array.search_batch(queries).top_k(k),
        )
    )
    return {
        "workload": (
            f"{TOPK_ROWS} rows x {N_STAGES} stages x {TOPK_QUERIES} "
            f"queries, k={k}"
        ),
        "top_k_batch_s": t_top_k,
        "exhaustive_s": t_exhaustive,
        "search_batch_s": t_search,
        "speedup": t_exhaustive / t_top_k,
        "exact": exact,
    }


def bench_resilient(repeats: int = 5) -> dict:
    """Resilient batched search vs the row-by-row reference, same array.

    The reference is ``resilient_search`` in ``tests/oracles.py``, the
    scalar path ``search`` took before it became a batch of one; every
    field of each batch slice and of ``search`` must equal it.  Each of
    :data:`RESILIENT_ROUNDS` alternating rounds times the best of
    ``repeats`` calls of the loop and of the batch; ``speedup`` is the
    median of the per-round loop/batch ratios, with its quartiles.  A
    batch reverted to the per-query loop reads ~1.
    """
    config = TDAMConfig(bits=2, n_stages=RESILIENT_STAGES, vdd=0.6)
    array = ResilientTDAMArray(
        config, RESILIENT_ROWS, n_spares=RESILIENT_SPARES
    )
    rng = np.random.default_rng(1)
    array.write_all(
        rng.integers(0, 4, size=(RESILIENT_ROWS, RESILIENT_STAGES))
    )
    queries = rng.integers(0, 4, size=(RESILIENT_QUERIES, RESILIENT_STAGES))
    array.search_batch(queries)  # warm up

    speedup, quartiles, t_loop, t_batch = _alternating_ratio(
        lambda: [resilient_search(array, q) for q in queries],
        lambda: array.search_batch(queries),
        RESILIENT_ROUNDS,
        repeats,
    )
    batch = array.search_batch(queries)
    exact = all(
        _same_fields(got, resilient_search(array, query))
        for i, query in enumerate(queries)
        for got in (batch.result(i), array.search(query))
    )
    return {
        "workload": (
            f"{RESILIENT_ROWS}+{RESILIENT_SPARES} rows x "
            f"{RESILIENT_STAGES} stages x {RESILIENT_QUERIES} queries"
        ),
        "loop_s": t_loop,
        "batch_s": t_batch,
        "speedup": speedup,
        "speedup_quartiles": quartiles,
        "rounds": RESILIENT_ROUNDS,
        "bit_exact": bool(exact),
    }


def bench_monte_carlo(n_runs: int, rounds: int = 10) -> dict:
    """The Fig. 6 trial loop against the rows Fig. 6 runs, interleaved.

    Both compute the samples of one Fig. 6 cell (default config, sigma
    30 mV, seed 7): ``run_monte_carlo(Fig6Trial(...))`` builds and
    searches one one-row array per trial, ``worst_case_delays`` writes
    the trials as the rows of one array.  Each of ``rounds`` alternating
    rounds times one call of each; ``speedup`` is the median of the
    per-round loop/rows ratios, with its quartiles.  A Fig. 6 that
    reverts to the trial loop reads ~1.
    """
    config = TDAMConfig()
    trial = Fig6Trial(config=config, sigma_mv=30.0)

    def loop() -> np.ndarray:
        return run_monte_carlo(trial, n_runs=n_runs, seed=7).samples

    def rows() -> np.ndarray:
        return worst_case_delays(config, 30.0, n_runs, 7)

    identical = np.array_equal(loop(), rows())
    speedup, quartiles, t_loop, t_rows = _alternating_ratio(
        loop, rows, rounds, 1
    )
    return {
        "workload": f"Fig. 6 cell, {n_runs} runs, sigma 30 mV",
        "loop_s": t_loop,
        "rows_s": t_rows,
        "speedup": speedup,
        "speedup_quartiles": quartiles,
        "rounds": rounds,
        "bit_identical": bool(identical),
    }


def bench_telemetry_overhead(repeats: int = 20, rounds: int = 9) -> dict:
    """search_batch cost at each telemetry tier vs the bare kernel.

    Three tiers: *disabled* (the master switch off -- the dormant
    wrappers must stay within the CI-gated <3% of the bare kernel),
    *metrics-only* (enabled with tracing off -- counters and probes but
    no span trees), and *full-trace* (spans + metrics + probes).

    The disabled overhead is a few percent at most, below the noise of
    one best-of timing pair, so it is measured over ``rounds``
    interleaved bare/disabled pairs and reported as the median with
    its quartiles; the pytest ``<3%`` check remains the gate.
    """
    config = TDAMConfig.fig8_system()
    array = FastTDAMArray(config, n_rows=N_ROWS)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(N_ROWS, N_STAGES)))
    queries = rng.integers(0, 4, size=(N_QUERIES, N_STAGES))

    telemetry.reset()
    array.search_batch(queries)  # warm up
    array._search_batch_impl(queries)
    pairs = [
        (
            _best_of(lambda: array._search_batch_impl(queries), repeats),
            _best_of(lambda: array.search_batch(queries), repeats),
        )
        for _ in range(rounds)
    ]
    t_bare = min(bare for bare, _ in pairs)
    t_disabled = min(disabled for _, disabled in pairs)
    q25, median, q75 = np.percentile(
        [(disabled / bare - 1.0) * 100.0 for bare, disabled in pairs],
        [25, 50, 75],
    )

    telemetry.enable()
    try:
        telemetry.set_tracing(False)
        array.search_batch(queries)
        t_metrics = _best_of(lambda: array.search_batch(queries), repeats)
        telemetry.set_tracing(True)
        array.search_batch(queries)
        t_enabled = _best_of(lambda: array.search_batch(queries), repeats)
    finally:
        telemetry.reset()

    return {
        "workload": f"{N_ROWS} rows x {N_STAGES} stages x {N_QUERIES} queries",
        "bare_kernel_s": t_bare,
        "disabled_s": t_disabled,
        "metrics_only_s": t_metrics,
        "enabled_s": t_enabled,
        "disabled_overhead_pct": float(median),
        "disabled_overhead_pct_quartiles": [float(q25), float(q75)],
        "disabled_overhead_rounds": rounds,
        "metrics_only_overhead_pct": (t_metrics / t_bare - 1.0) * 100.0,
        "enabled_overhead_pct": (t_enabled / t_bare - 1.0) * 100.0,
    }


def bench_coalesce(
    client_counts=(4, 16, 64), per_client: int = 25
) -> dict:
    """Concurrent-client throughput: direct calls vs the coalescing front end.

    Each level spawns N threads that issue ``per_client`` sequential
    searches; the direct path hits ``TDAMSearchService.search`` one
    query at a time while the coalesced path goes through a
    ``CoalescingFrontend`` that merges the concurrent callers into
    batched shard calls.  Tracked (non-gating) -- the win is the batch
    kernel's, the front end just has to harvest it without breaking
    bit-exactness.
    """
    import threading

    from repro.resilience.resilient import ResilientTDAMArray
    from repro.service import (
        CoalescePolicy,
        CoalescingFrontend,
        TDAMSearchService,
    )

    config = TDAMConfig.fig8_system()
    rng = np.random.default_rng(1)
    stored = rng.integers(0, 4, size=(N_ROWS, N_STAGES))
    shard = ResilientTDAMArray(config, n_rows=N_ROWS, n_spares=2)
    service = TDAMSearchService([shard], default_deadline_s=30.0)
    service.write_all(stored)
    queries = rng.integers(0, 4, size=(64, N_STAGES))

    def clients(n, call):
        errors = []

        def worker(i):
            try:
                for j in range(per_client):
                    call(queries[(i * per_client + j) % len(queries)])
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return n * per_client / elapsed

    levels = {}
    for n in client_counts:
        direct_qps = clients(n, lambda q: service.search(q))
        frontend = CoalescingFrontend(
            service,
            policy=CoalescePolicy(window_s=0.002, max_batch=max(n, 2)),
        )
        with frontend:
            coalesced_qps = clients(n, lambda q: frontend.search(q))
            stats = frontend.stats()
        levels[str(n)] = {
            "direct_qps": direct_qps,
            "coalesced_qps": coalesced_qps,
            "speedup": coalesced_qps / direct_qps,
            "mean_batch_size": stats.mean_batch_size,
        }
    return {
        "workload": (
            f"{N_ROWS} rows x {N_STAGES} stages, "
            f"{per_client} searches/client"
        ),
        "clients": levels,
    }


def bench_ann(
    n_rows: int = 1_000_000,
    n_clusters: int = 256,
    nprobe: int = 8,
    n_queries: int = 64,
    k: int = 10,
    repeats: int = 3,
) -> dict:
    """Recall@k vs queries/s: the clustered memmapped ANN index.

    Builds the clustered ``noise=0.35`` corpus the repository benchmark
    (``bench/``) serves, packs it into a ``BitPlaneStore`` +
    ``ClusteredTDAMIndex`` in a temp directory, and times the routed
    probe against the *same index* probing every cluster
    (``nprobe = n_clusters``), so the ratio measures what routing
    saves, not how fast some other search path is.  Tracked gates:
    ``speedup`` (full probe / routed probe), ``recall_at_10`` against
    exhaustive in-RAM ``top_k_batch`` (this corpus has neighbors
    outside the probed clusters, so the gate can fail),
    ``exact_full_probe`` (bit-identical to exhaustive at ``nprobe =
    n_clusters``), and ``reopen_identical`` (a freshly reopened store
    serves the identical answer).  The exhaustive wall clock is
    reported for reference, and a small nprobe sweep records the
    recall/throughput tradeoff curve.
    """
    from repro.datasets.synthetic import make_clustered_levels, perturb_levels
    from repro.index import BitPlaneStore, ClusteredTDAMIndex

    config = TDAMConfig(n_stages=64)
    rng = np.random.default_rng(7)
    rows, _, _ = make_clustered_levels(
        n_rows, config.n_stages, config.levels, n_clusters,
        noise=0.35, seed=7,
    )
    picks = rng.integers(0, n_rows, size=n_queries)
    queries = perturb_levels(
        rows[picks], config.levels, noise=0.35, seed=9
    ).astype(np.int64)

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        index = ClusteredTDAMIndex.build(
            tmp, rows, config, n_clusters=n_clusters, seed=7,
        )
        build_s = time.perf_counter() - start
        # Warm: the first probe maps and checksums the corpus components.
        ann = index.top_k(queries, k, nprobe=nprobe)
        t_ann = _best_of(
            lambda: index.top_k(queries, k, nprobe=nprobe), repeats
        )
        full = index.top_k(queries, k, nprobe=n_clusters)
        t_full = _best_of(
            lambda: index.top_k(queries, k, nprobe=n_clusters), repeats
        )
        reopened = ClusteredTDAMIndex(BitPlaneStore(tmp))
        reopen_identical = bool(
            np.array_equal(
                reopened.top_k(queries, k, nprobe=nprobe).rows, ann.rows
            )
        )
        sweep = {}
        for probe_width in sorted({1, max(1, nprobe // 2), nprobe}):
            probe_res = index.top_k(queries, k, nprobe=probe_width)
            t_probe = _best_of(
                lambda: index.top_k(queries, k, nprobe=probe_width),
                max(1, repeats - 1),
            )
            sweep[str(probe_width)] = {
                "queries_per_s": n_queries / t_probe,
                "probe_fraction": probe_res.probe_fraction,
            }

        array = FastTDAMArray(config, n_rows=n_rows)
        array.write_all(rows.astype(np.int64))
        truth = array.top_k_batch(queries, k)  # warm (builds tables)
        t_exhaustive = _best_of(
            lambda: array.top_k_batch(queries, k), max(2, repeats - 1)
        )
        exact_full_probe = bool(np.array_equal(full.rows, truth))
        hits = sum(
            len(set(ann.rows[i]) & set(truth[i]))
            for i in range(n_queries)
        )
        recall = hits / float(n_queries * k)
        for probe_width, entry in sweep.items():
            probe_res = index.top_k(queries, k, nprobe=int(probe_width))
            probe_hits = sum(
                len(set(probe_res.rows[i]) & set(truth[i]))
                for i in range(n_queries)
            )
            entry["recall_at_k"] = probe_hits / float(n_queries * k)

    return {
        "workload": (
            f"{n_rows} rows x {config.n_stages} stages, "
            f"{n_clusters} clusters, noise 0.35, {n_queries} queries, "
            f"k={k}"
        ),
        "rows": n_rows,
        "clusters": n_clusters,
        "nprobe": nprobe,
        "build_s": build_s,
        "full_probe_s": t_full,
        "exhaustive_s": t_exhaustive,
        "ann_s": t_ann,
        "full_probe_queries_per_s": n_queries / t_full,
        "exhaustive_queries_per_s": n_queries / t_exhaustive,
        "ann_queries_per_s": n_queries / t_ann,
        "speedup": t_full / t_ann,
        "recall_at_10": recall,
        "probe_fraction": ann.probe_fraction,
        "exact_full_probe": exact_full_probe,
        "reopen_identical": reopen_identical,
        "nprobe_sweep": sweep,
    }


def bench_encode(repeats: int = 20) -> dict:
    """Nonlinear encoder against the rule it replaced, interleaved.

    Times ``RandomProjectionEncoder.encode`` on the microbench workload
    (64 samples x 617 features -> D=2048) against the pre-rewrite rule
    on the same float32 weights: one GEMM ``p = X @ P.T``, then
    ``cos(p + b) * sin(p)``.  ``max_abs_err`` is their largest
    deviation.  The quantized in-fabric variant rides along (wall
    clock, worst-case deviation from the float path, and the modeled
    fabric latency/energy of the batch).
    """
    from repro.hdc.encoder import RandomProjectionEncoder

    encoder = RandomProjectionEncoder(617, 2048, seed=0)
    batch = (
        np.random.default_rng(2).normal(size=(64, 617)).astype(np.float32)
    )

    def direct():
        p = batch @ encoder._projection.T
        return np.cos(p + encoder._phase) * np.sin(p)

    # Warm: builds the sin(b) tile for this width.
    direct_err = float(np.abs(encoder.encode(batch) - direct()).max())
    # Interleaved, so a burst of machine noise hits both rules alike.
    t_encode = t_direct = float("inf")
    for _ in range(repeats):
        t_encode = min(t_encode, _best_of(lambda: encoder.encode(batch), 1))
        t_direct = min(t_direct, _best_of(direct, 1))

    quant = encoder.quantize()
    quant.encode(batch)
    t_quant = _best_of(lambda: quant.encode(batch), repeats)
    err = float(np.abs(quant.encode(batch) - encoder.encode(batch)).max())
    cost = quant.encode_cost(len(batch))
    return {
        "workload": "64 samples x 617 features -> D=2048, nonlinear",
        "encode_s": t_encode,
        "direct_s": t_direct,
        "speedup": t_direct / t_encode,
        "max_abs_err": direct_err,
        "quantized_s": t_quant,
        "quantized_max_abs_err": err,
        "fabric_latency_s": cost.latency_s,
        "fabric_energy_j": cost.energy_j,
    }


def bench_mvm(repeats: int = 10) -> dict:
    """``MVMPlan.matmul`` against the int64 numpy loop.

    An 8b x 8b weight-stationary product, asserted bit-identical to the
    int64 reference (exact integers: any difference is a kernel bug).
    The gate is the ``bit_exact`` flag; the timings and the modeled
    fabric cost ride along untracked.
    """
    from repro.core.mvm import MVMPlan

    n_out, n_in, n_samples = 256, 617, 32
    rng = np.random.default_rng(5)
    weights = rng.integers(-128, 128, size=(n_out, n_in), dtype=np.int64)
    acts = rng.integers(0, 256, size=(n_samples, n_in), dtype=np.int64)
    plan = MVMPlan(weights, bits=8, signed=True)
    reference = acts @ weights.T

    exact = bool(np.array_equal(plan.matmul(acts), reference))
    t_gemm = _best_of(lambda: plan.matmul(acts), repeats)
    t_loop = _best_of(lambda: acts @ weights.T, repeats)
    cost = plan.cost(activation_bits=8, n_batch=n_samples)
    return {
        "workload": (
            f"{n_samples} x {n_in} acts @ ({n_out} x {n_in}).T, "
            "8b acts x 8b signed weights"
        ),
        "gemm_s": t_gemm,
        "loop_s": t_loop,
        "gemm_speedup_vs_loop": t_loop / t_gemm,
        "bit_exact": exact,
        "modeled_latency_s": cost.latency_s,
        "modeled_energy_j": cost.energy_j,
    }


def bench_hdc_query(repeats: int = 50) -> dict:
    """The query quantizer against the binary-search rule it replaced.

    On one encoded batch, times ``QuantizedModel.quantize_queries``
    against that rule: float64 upcast, renormalize, ``np.digitize``.
    ``bit_exact`` compares both over the encoded test set;
    ``query_levels_s``, the whole feature-to-level path, rides along
    untracked.
    """
    from repro.datasets.synthetic import make_isolet_like
    from repro.hdc.encoder import RandomProjectionEncoder
    from repro.hdc.model import HDCClassifier
    from repro.hdc.pipeline import build_pipeline

    ds = make_isolet_like(seed=1)
    encoder = RandomProjectionEncoder(
        ds.n_features, HDC_QUERY_DIMENSION, seed=0
    )
    clf = HDCClassifier(encoder, ds.n_classes).fit(
        ds.x_train, ds.y_train, epochs=1
    )
    pipe = build_pipeline(clf, bits=HDC_QUERY_BITS, fabric=True)
    model = pipe.model
    features = ds.x_test[:HDC_QUERY_SAMPLES]
    encoded = pipe.encode(features)

    def digitize(queries):
        q = np.asarray(queries, dtype=np.float64)
        q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        return np.digitize(q, model.edges).astype(np.int64)

    test_set = pipe.encode(ds.x_test)
    exact = bool(
        np.array_equal(model.quantize_queries(test_set), digitize(test_set))
    )
    # Interleaved, so a burst of machine noise hits both rules alike.
    t_quantize = t_digitize = float("inf")
    for _ in range(repeats):
        t_quantize = min(
            t_quantize, _best_of(lambda: model.quantize_queries(encoded), 1)
        )
        t_digitize = min(t_digitize, _best_of(lambda: digitize(encoded), 1))
    t_levels = _best_of(lambda: pipe.query_levels(features), repeats)
    return {
        "workload": (
            f"{HDC_QUERY_SAMPLES} samples x {ds.n_features} features -> "
            f"D={HDC_QUERY_DIMENSION}, {HDC_QUERY_BITS}-bit, fabric encoder"
        ),
        "quantize_s": t_quantize,
        "digitize_s": t_digitize,
        "speedup": t_digitize / t_quantize,
        "bit_exact": exact,
        "query_levels_s": t_levels,
    }


def _rescoring_init(encoded, k, rng) -> np.ndarray:
    """Greedy init that re-scores every chosen centroid at each step:
    the full ``n x j`` matrix of exact keys ``d * |d| / (|x|^2 |c|^2)``
    at step ``j``, the same keys ``HDCluster._init_indices`` folds
    into a running maximum."""
    sq_norms = np.einsum("ij,ij->i", encoded, encoded)
    chosen = [int(rng.integers(encoded.shape[0]))]
    while len(chosen) < k:
        d = encoded @ encoded[chosen].T
        keys = d * np.abs(d) / (sq_norms[:, None] * sq_norms[chosen])
        closeness = keys.max(axis=1)
        closeness[chosen] = np.inf
        chosen.append(int(closeness.argmin()))
    return np.array(chosen)


def bench_cluster_init(repeats: int = 5, seed: int = 7) -> dict:
    """The clustered index's k-means init against re-scoring each step.

    Samples the quantizer rows ``ClusteredTDAMIndex.build`` would fit
    on the ``ann-probe`` corpus and times ``HDCluster._init_indices``
    interleaved against :func:`_rescoring_init`.  On integer levels
    both compute every key exactly, so ``exact`` (identical picks) can
    only fail if the running maximum drops or misorders a key.
    """
    from repro.datasets.synthetic import make_clustered_levels
    from repro.hdc.cluster import HDCluster

    corpus, _, _ = make_clustered_levels(
        CLUSTER_INIT_ROWS, CLUSTER_INIT_STAGES, 4, CLUSTER_INIT_CLUSTERS,
        noise=0.35, seed=seed,
    )
    rng = np.random.default_rng(seed)
    picks = np.sort(
        rng.choice(CLUSTER_INIT_ROWS, size=CLUSTER_INIT_SAMPLE, replace=False)
    )
    sample = corpus[picks]
    sample = sample[sample.any(axis=1)].astype(np.float64)
    cluster = HDCluster(k=CLUSTER_INIT_CLUSTERS, seed=seed)

    def incremental():
        return cluster._init_indices(sample, np.random.default_rng(seed))

    def rescoring():
        return _rescoring_init(
            sample, cluster.k, np.random.default_rng(seed)
        )

    exact = bool(np.array_equal(incremental(), rescoring()))
    # Interleaved, so a burst of machine noise hits both rules alike.
    t_init = t_rescore = float("inf")
    for _ in range(repeats):
        t_init = min(t_init, _best_of(incremental, 1))
        t_rescore = min(t_rescore, _best_of(rescoring, 1))
    return {
        "workload": (
            f"{sample.shape[0]} sampled rows of {CLUSTER_INIT_ROWS} x "
            f"{CLUSTER_INIT_STAGES} stages, {CLUSTER_INIT_CLUSTERS} "
            f"clusters, noise 0.35"
        ),
        "init_s": t_init,
        "rescoring_s": t_rescore,
        "speedup": t_rescore / t_init,
        "exact": exact,
    }


def export_telemetry_artifacts(metrics_out, trace_out) -> None:
    """Run a traced reference workload and dump metrics/trace artifacts."""
    config = TDAMConfig.fig8_system()
    telemetry.reset()
    telemetry.enable()
    try:
        array = FastTDAMArray(config, n_rows=N_ROWS)
        rng = np.random.default_rng(1)
        array.write_all(rng.integers(0, 4, size=(N_ROWS, N_STAGES)))
        queries = rng.integers(0, 4, size=(N_QUERIES, N_STAGES))
        with telemetry.span("bench.reference_workload",
                            queries=N_QUERIES, rows=N_ROWS):
            array.search_batch(queries)
            for q in queries[:8]:
                array.search(q)
        if metrics_out:
            telemetry.get_registry().dump_json(metrics_out)
        if trace_out:
            telemetry.dump_chrome_trace(trace_out)
    finally:
        telemetry.reset()


def run_microbench() -> dict:
    """Run the pytest-benchmark suite; return its stats (name -> mean s)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest",
                str(REPO_ROOT / "benchmarks" / "test_perf_microbench.py"),
                "-q", f"--benchmark-json={out}",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out.exists():
            return {"error": proc.stdout[-2000:] + proc.stderr[-2000:]}
        data = json.loads(out.read_text())
    return {
        bench["name"]: {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
        for bench in data.get("benchmarks", [])
    }


#: The perf-regression contract: (metric path, kind, threshold).
#:
#: - ``abs_min``: the current value must be >= the absolute threshold.
#: - ``true``: the current value must be exactly ``True`` (bit-exactness
#:   flags -- never negotiable).
#:
#: Metrics missing from the current report fail (a tracked kernel
#: silently disappearing is itself a regression).  No gate reads the
#: baseline; it is shown beside each metric for reference.
TRACKED_GATES = (
    ("search_batch.speedup", "abs_min", 10.0),
    ("search_batch.bit_exact", "true", None),
    ("kernels.packed_speedup_vs_loop", "abs_min", 10.0),
    ("kernels.bit_exact", "true", None),
    # The one-fold XOR call's transient over the tiled call's, at
    # scan-topk's geometry: 6.93, and deterministic; a kernel that
    # builds every query's words at once reads 1.0.  The bound is 0.8
    # of the reading.  The time ratio beside it is reported only.
    ("kernels.tile_peak_ratio", "abs_min", 5.5),
    ("kernels.tile_bit_exact", "true", None),
    ("topk.speedup", "abs_min", 3.0),
    ("topk.exact", "true", None),
    # The row-by-row reference loop over the batch, interleaved: a
    # batch reverted to the per-query loop reads ~1.  Best-of timings
    # read 10.2-17.4 against the old bound of 10.  The median of
    # alternating rounds read 22.2-26.9 in 13 full reports on a shared
    # 2-core VM, and 10.1-13.6 in 42 calls from fresh processes, where
    # the same batch takes 0.6-1.0 ms instead of 0.3-0.5 until the
    # process has freed large arrays.  The bound is 0.8 of the lowest
    # reading.
    ("resilient.speedup", "abs_min", 8.1),
    ("resilient.bit_exact", "true", None),
    # The trial loop over the rows of one array, interleaved: a Fig. 6
    # reverted to the loop reads ~1.0.  The rows read 5.13-6.06 in 12
    # readings on a shared 2-core VM; the bound is 0.8 of the lowest.
    ("monte_carlo.speedup", "abs_min", 4.1),
    ("monte_carlo.bit_identical", "true", None),
    ("ann.speedup", "abs_min", 13.5),
    ("ann.recall_at_10", "abs_min", 0.80),
    ("ann.exact_full_probe", "true", None),
    ("ann.reopen_identical", "true", None),
    # The rewrite against the direct rule on the same weights, timed
    # interleaved: the absolute encode_s ceiling and the ratio to a
    # frozen constant it replaced failed 4 and 3 of 5 back-to-back
    # runs on a shared 2-core VM.  The ratio read 1.35-2.81 in 15
    # readings there; the bound is 0.8 of the lowest.
    ("encode.speedup", "abs_min", 1.08),
    ("mvm.bit_exact", "true", None),
    # Both timings run the same code before the comparison-count rule,
    # so the parent commit reads ~1.0; the rule read 4.2-5.1 in 10 runs
    # on a shared 2-core VM.
    ("hdc_query.speedup", "abs_min", 3.0),
    ("hdc_query.bit_exact", "true", None),
    # The cosine re-scoring init read 1.13-1.28 against the exact-key
    # re-scoring; the running maximum read 23.6-28.9 pinned to one CPU
    # (6 runs) and 33.3-46.0 on both (8 runs) of a shared 2-core VM.
    # The bound is 0.8 of the lowest.
    ("cluster_init.speedup", "abs_min", 18.8),
    ("cluster_init.exact", "true", None),
)


def _lookup(report: dict, path: str):
    """Fetch a dotted metric path from a nested report dict."""
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def compare_to_baseline(report: dict, baseline: dict) -> list:
    """Evaluate every tracked gate; return one comparison row each."""
    rows = []
    for path, kind, threshold in TRACKED_GATES:
        current = _lookup(report, path)
        base = _lookup(baseline, path)
        row = {
            "metric": path,
            "kind": kind,
            "current": current,
            "baseline": base,
        }
        if current is None:
            row["status"] = "fail"
            row["reason"] = "metric missing from current report"
        elif kind == "true":
            row["status"] = "pass" if current is True else "fail"
        elif kind == "abs_min":
            row["threshold"] = threshold
            row["status"] = "pass" if current >= threshold else "fail"
        rows.append(row)
    return rows


def _print_comparison(rows: list) -> bool:
    """Render the gate table; return True when every gate passed."""
    ok = True
    print("perf gate vs baseline:")
    for row in rows:
        status = row["status"]
        ok = ok and status != "fail"
        detail = f"current={row['current']}"
        if row.get("threshold") is not None:
            detail += f" threshold>={row['threshold']:.3g}"
        if row.get("baseline") is not None:
            detail += f" baseline={row['baseline']}"
        if row.get("reason"):
            detail += f" ({row['reason']})"
        print(f"  [{status.upper():>7}] {row['metric']}: {detail}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_search.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-microbench", action="store_true",
        help="skip the pytest-benchmark suite (direct timings only)",
    )
    parser.add_argument(
        "--mc-runs", type=int, default=200,
        help="Monte Carlo trials per timing",
    )
    parser.add_argument(
        "--ann-rows", type=int, default=1_000_000,
        help="corpus size for the clustered-ANN bench (the 10^6-row "
             "headline; CI smoke runs use a smaller corpus)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="also dump the metrics registry of a traced reference "
             "workload to this JSON path (CI artifact)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="also dump a Chrome trace of the reference workload to "
             "this JSON path (CI artifact)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed BENCH_search.json to compare the fresh report "
             "against (prints the gate table)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when any tracked metric fails its threshold "
             "(requires --baseline)",
    )
    parser.add_argument(
        "--compare-report", default=None,
        help="write the gate comparison table to this JSON path "
             "(CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.gate and not args.baseline:
        parser.error("--gate requires --baseline")

    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "search_batch": bench_search_batch(),
        "kernels": {**bench_kernels(), **bench_kernel_tiles()},
        "topk": bench_topk(),
        "resilient": bench_resilient(),
        "monte_carlo": bench_monte_carlo(args.mc_runs),
        "telemetry_overhead": bench_telemetry_overhead(),
        "coalesce": bench_coalesce(),
        "ann": bench_ann(n_rows=args.ann_rows),
        "encode": bench_encode(),
        "mvm": bench_mvm(),
        "hdc_query": bench_hdc_query(),
        "cluster_init": bench_cluster_init(),
    }
    if not args.skip_microbench:
        report["microbench"] = run_microbench()

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.metrics_out or args.trace_out:
        export_telemetry_artifacts(args.metrics_out, args.trace_out)

    search = report["search_batch"]
    kern = report["kernels"]
    topk = report["topk"]
    res = report["resilient"]
    mc = report["monte_carlo"]
    tel = report["telemetry_overhead"]
    print(f"search_batch: {search['batch_queries_per_s']:,.0f} queries/s "
          f"({search['speedup']:.1f}x vs loop, "
          f"bit_exact={search['bit_exact']})")
    print(f"kernels:      packed {kern['packed_speedup_vs_loop']:.1f}x vs "
          f"loop (bit_exact={kern['bit_exact']})")
    tq25, tq75 = kern["tile_speedup_quartiles"]
    print(f"kernels:      tiled XOR {kern['tile_speedup']:.2f}x "
          f"[{tq25:.2f}, {tq75:.2f}] vs one fold, transient "
          f"{kern['tile_peak_ratio']:.1f}x smaller "
          f"(tile_bit_exact={kern['tile_bit_exact']})")
    print(f"topk:         {topk['speedup']:.2f}x vs ranking a full search "
          f"(exact={topk['exact']})")
    rq25, rq75 = res["speedup_quartiles"]
    print(f"resilient:    {res['batch_s'] * 1e3:.2f} ms per batch "
          f"({res['speedup']:.1f}x [{rq25:.1f}, {rq75:.1f}] vs loop, "
          f"bit_exact={res['bit_exact']})")
    mq25, mq75 = mc["speedup_quartiles"]
    print(f"monte_carlo:  rows {mc['speedup']:.2f}x "
          f"[{mq25:.2f}, {mq75:.2f}] vs the trial loop "
          f"(bit_identical={mc['bit_identical']})")
    q25, q75 = tel["disabled_overhead_pct_quartiles"]
    print(f"telemetry:    disabled {tel['disabled_overhead_pct']:+.2f}% "
          f"[{q25:+.2f}, {q75:+.2f}] / "
          f"metrics-only {tel['metrics_only_overhead_pct']:+.2f}% / "
          f"full-trace {tel['enabled_overhead_pct']:+.2f}% vs bare kernel")
    for n, row in report["coalesce"]["clients"].items():
        print(f"coalesce:     {n:>3} clients "
              f"{row['coalesced_qps']:,.0f} q/s coalesced vs "
              f"{row['direct_qps']:,.0f} direct ({row['speedup']:.2f}x, "
              f"mean batch {row['mean_batch_size']:.1f})")
    ann = report["ann"]
    print(f"ann:          {ann['ann_queries_per_s']:,.0f} queries/s on "
          f"{ann['rows']:,} rows ({ann['speedup']:.1f}x vs its full probe, "
          f"recall@10 {ann['recall_at_10']:.4f}, "
          f"exact_full_probe={ann['exact_full_probe']}, "
          f"reopen_identical={ann['reopen_identical']})")
    enc = report["encode"]
    print(f"encode:       {enc['encode_s'] * 1e3:.2f} ms "
          f"({enc['speedup']:.2f}x vs the direct rule, "
          f"quantized {enc['quantized_s'] * 1e3:.2f} ms, "
          f"max err {enc['quantized_max_abs_err']:.3g})")
    mvm = report["mvm"]
    print(f"mvm:          gemm {mvm['gemm_s'] * 1e3:.2f} ms, loop "
          f"{mvm['loop_s'] * 1e3:.2f} ms (bit_exact={mvm['bit_exact']})")
    hq = report["hdc_query"]
    print(f"hdc_query:    quantize {hq['quantize_s'] * 1e3:.3f} ms "
          f"({hq['speedup']:.2f}x vs np.digitize, "
          f"bit_exact={hq['bit_exact']}), query_levels "
          f"{hq['query_levels_s'] * 1e3:.2f} ms")
    ci = report["cluster_init"]
    print(f"cluster_init: {ci['init_s'] * 1e3:.1f} ms "
          f"({ci['speedup']:.1f}x vs re-scoring each step, "
          f"exact={ci['exact']})")
    print(f"wrote {args.output}")
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        print(f"wrote {args.trace_out}")

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        rows = compare_to_baseline(report, baseline)
        ok = _print_comparison(rows)
        if args.compare_report:
            Path(args.compare_report).write_text(
                json.dumps(
                    {"baseline": args.baseline, "gates": rows, "ok": ok},
                    indent=2,
                ) + "\n"
            )
            print(f"wrote {args.compare_report}")
        if args.gate and not ok:
            print("perf gate FAILED")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
