#!/usr/bin/env python
"""Benchmark report: batched-search and Monte Carlo throughput numbers.

Runs the performance microbench suite (``benchmarks/test_perf_microbench.py``)
plus two direct wall-clock studies, and writes ``BENCH_search.json``:

1. **Batched search vs per-query loop** on the Fig. 8-shaped reference
   workload (26 rows x 128 stages, 256 queries): queries/s of
   ``FastTDAMArray.search_batch`` against a Python loop of ``search()``,
   and their ratio (the committed baseline asserts >= 10x).
2. **Shard-parallel Monte Carlo**: wall clock of a Fig. 6 Monte Carlo
   cell with 1 worker vs the auto-resolved worker count (same seed; the
   driver is bit-reproducible for any worker count, so only the wall
   clock moves).  By default the worker count is chosen by
   ``resolve_worker_count`` -- on machines where sharding cannot win
   (single CPU, too few trials) the "parallel" leg falls back to serial
   and the report records why.
3. **Telemetry overhead**: ``search_batch`` wall clock at each
   telemetry tier -- disabled (dormant wrappers), metrics-only
   (tracing off), and full-trace (spans + metrics + probes) -- against
   the bare un-instrumented kernel; the disabled tier is reported as a
   median over interleaved rounds with its quartile spread.
   Optionally writes the metrics registry and a Chrome trace as CI
   artifacts.

4. **Count kernel**: the packed-popcount kernel that counts every batch
   against the per-query reference loop on the same workload, with
   bit-exactness asserted; the tracked headline is
   ``packed_speedup_vs_loop``.
5. **Top-k**: ``FastTDAMArray.top_k_batch`` (exact counts ranked
   directly) against ranking a full ``search_batch().top_k``, on the
   serving array (1024 rows x 128 stages, 32-query batches), with
   index-exact equality asserted; gated so top-k is never slower than
   ranking a full search.
6. **Resilient batches**: ``ResilientTDAMArray.search_batch`` against
   a loop of its scalar ``search`` on the HDC classifier's array (26
   class rows + 2 spares x 2048 stages at V_DD = 0.6 V, 32-query
   batches), with every result field compared; gated at >= 10x.
7. **Clustered ANN**: the memmapped ``ClusteredTDAMIndex`` routed probe
   against exhaustive in-RAM ``top_k_batch`` on a million-row clustered
   corpus (``--ann-rows`` scales it down for CI): queries/s, recall@10,
   and the nprobe=n_clusters bit-identity check.
8. **HDC encode**: the nonlinear ``RandomProjectionEncoder`` on the
   committed microbench workload (64 samples x 617 features -> D=2048)
   against the *committed pre-rewrite baseline constant* -- the fused
   trig-identity rewrite is gated at >= 5x -- plus the quantized
   in-fabric variant's wall clock, worst-case error, and modeled
   fabric cost.
9. **MVM**: ``MVMPlan.matmul`` (the exact-by-bounds GEMM) against the
   int64 numpy loop on an 8b x 8b product, with bit-exactness asserted
   (gated).

Regression gate.  With ``--baseline BENCH_search.json`` the report is
compared against the committed numbers metric-by-metric
(:data:`TRACKED_GATES`); ``--gate`` turns any failed comparison into a
non-zero exit (the CI bench job fails), and ``--compare-report`` writes
the full comparison table as a JSON artifact.  Metrics absent from the
baseline are *skipped*, so new benches can land before their baseline.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--output BENCH_search.json]
        [--skip-microbench] [--workers N] [--mc-runs N]
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
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.core.array import FastTDAMArray, resolve_query_chunk  # noqa: E402
from repro.core.config import TDAMConfig  # noqa: E402
from repro.resilience.resilient import ResilientTDAMArray  # noqa: E402
from repro.experiments.fig6_montecarlo import Fig6Trial  # noqa: E402
from repro.spice.montecarlo import (  # noqa: E402
    resolve_worker_count,
    run_monte_carlo,
)

N_ROWS = 26
N_STAGES = 128
N_QUERIES = 256
# The top-k bench runs on the serving benchmark's array instead
# (``repro serve`` at 1024 rows x 128 stages, coalesced batches of up to
# 32 queries), so it times the top-k path serving traffic runs.
TOPK_ROWS = 1024
TOPK_QUERIES = 32
# The resilient bench runs on the HDC classifier's array (the
# ``hdc-refresh`` benchmark workload: 26 classes, 2 spares, D = 2048).
RESILIENT_ROWS = 26
RESILIENT_SPARES = 2
RESILIENT_STAGES = 2048
RESILIENT_QUERIES = 32


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` timed calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_search_batch(repeats: int = 5) -> dict:
    """Batched vs looped search on the Fig. 8 reference workload."""
    config = TDAMConfig.fig8_system()
    array = FastTDAMArray(config, n_rows=N_ROWS)
    rng = np.random.default_rng(1)
    array.write_all(rng.integers(0, 4, size=(N_ROWS, N_STAGES)))
    queries = rng.integers(0, 4, size=(N_QUERIES, N_STAGES))
    array.search_batch(queries)  # warm up

    t_batch = _best_of(lambda: array.search_batch(queries), repeats)
    t_loop = _best_of(
        lambda: [array.search(q) for q in queries], max(2, repeats // 2)
    )
    batch = array.search_batch(queries)
    exact = all(
        np.array_equal(batch.delays_s[i], array.search(q).delays_s)
        and int(batch.best_rows[i]) == array.search(q).best_row
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
    noise), as do ``search_batch`` and the scalar ``search`` loop on
    every field.  The tracked gate is ``packed_speedup_vs_loop``.
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
    for i, query in enumerate(queries):
        want = array.search(query)
        exact = exact and bool(
            np.array_equal(batch.delays_s[i], want.delays_s)
            and np.array_equal(
                batch.hamming_distances[i], want.hamming_distances
            )
            and int(batch.best_rows[i]) == want.best_row
        )
    return {
        "workload": f"{N_ROWS} rows x {N_STAGES} stages x {N_QUERIES} queries",
        "packed_s": t_packed,
        "loop_s": t_loop,
        "packed_speedup_vs_loop": t_loop / t_packed,
        "bit_exact": exact,
    }


def bench_topk(k: int = 5, repeats: int = 10) -> dict:
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


def bench_resilient(repeats: int = 20) -> dict:
    """Resilient batched search vs its scalar loop, same array."""
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

    t_batch = _best_of(lambda: array.search_batch(queries), repeats)
    t_loop = _best_of(
        lambda: [array.search(q) for q in queries], max(2, repeats // 4)
    )
    batch = array.search_batch(queries)
    exact = True
    for i, query in enumerate(queries):
        got, want = batch.result(i), array.search(query)
        exact = exact and all(
            np.array_equal(getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(want)
        )
    return {
        "workload": (
            f"{RESILIENT_ROWS}+{RESILIENT_SPARES} rows x "
            f"{RESILIENT_STAGES} stages x {RESILIENT_QUERIES} queries"
        ),
        "loop_s": t_loop,
        "batch_s": t_batch,
        "speedup": t_loop / t_batch,
        "bit_exact": bool(exact),
    }


def bench_monte_carlo(n_runs: int, n_workers=None, repeats: int = 3) -> dict:
    """Serial vs shard-parallel Monte Carlo wall clock (same results).

    ``n_workers=None`` uses the auto heuristic; the report records both
    the requested and the resolved count plus any fallback reason.
    """
    trial = Fig6Trial(config=TDAMConfig(), sigma_mv=30.0)
    resolved, fallback_reason = resolve_worker_count(
        n_runs, n_workers, executor="process"
    )
    serial = run_monte_carlo(trial, n_runs=n_runs, seed=7)
    parallel = run_monte_carlo(trial, n_runs=n_runs, seed=7,
                               n_workers=resolved)
    t_serial = _best_of(
        lambda: run_monte_carlo(trial, n_runs=n_runs, seed=7), repeats
    )
    t_parallel = _best_of(
        lambda: run_monte_carlo(trial, n_runs=n_runs, seed=7,
                                n_workers=resolved),
        repeats,
    )
    return {
        "workload": f"Fig. 6 trial, {n_runs} runs, sigma 30 mV",
        "requested_workers": "auto" if n_workers is None else n_workers,
        "n_workers": resolved,
        "fallback_reason": fallback_reason,
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel,
        "bit_identical": bool(
            np.array_equal(serial.samples, parallel.samples)
        ),
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
    """Recall@k vs queries/s: clustered memmapped ANN vs exhaustive.

    Builds a clustered synthetic corpus, packs it into a
    ``BitPlaneStore`` + ``ClusteredTDAMIndex`` in a temp directory, and
    measures the routed probe against the exhaustive in-RAM
    ``top_k_batch`` on the same queries.  Tracked gates: ``speedup``
    (>= 10x at the operating point), ``recall_at_10`` (>= 0.95),
    ``exact_full_probe`` (bit-identical to exhaustive at
    ``nprobe = n_clusters``), and ``reopen_identical`` (a freshly
    reopened store serves the identical answer).  A small nprobe sweep
    records the recall/throughput tradeoff curve.
    """
    from repro.datasets.synthetic import make_clustered_levels, perturb_levels
    from repro.index import BitPlaneStore, ClusteredTDAMIndex

    config = TDAMConfig(n_stages=64)
    rng = np.random.default_rng(7)
    rows, _, _ = make_clustered_levels(
        n_rows, config.n_stages, config.levels, n_clusters,
        noise=0.08, seed=7,
    )
    picks = rng.integers(0, n_rows, size=n_queries)
    queries = perturb_levels(
        rows[picks], config.levels, noise=0.08, seed=9
    ).astype(np.int64)

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        index = ClusteredTDAMIndex.build(
            tmp, rows, config, n_clusters=n_clusters, seed=7,
        )
        build_s = time.perf_counter() - start
        ann = index.top_k(queries, k, nprobe=nprobe)  # warm (maps shards)
        t_ann = _best_of(
            lambda: index.top_k(queries, k, nprobe=nprobe), repeats
        )
        full = index.top_k(queries, k, nprobe=n_clusters)
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
            f"{n_clusters} clusters, {n_queries} queries, k={k}"
        ),
        "rows": n_rows,
        "clusters": n_clusters,
        "nprobe": nprobe,
        "build_s": build_s,
        "exhaustive_s": t_exhaustive,
        "ann_s": t_ann,
        "exhaustive_queries_per_s": n_queries / t_exhaustive,
        "ann_queries_per_s": n_queries / t_ann,
        "speedup": t_exhaustive / t_ann,
        "recall_at_10": recall,
        "probe_fraction": ann.probe_fraction,
        "exact_full_probe": exact_full_probe,
        "reopen_identical": reopen_identical,
        "nprobe_sweep": sweep,
    }


#: Committed mean wall clock of the ``test_perf_encoder`` microbench
#: (64 samples x 617 features -> D=2048) *before* the fused
#: trig-identity rewrite of the nonlinear encoder.  The
#: ``encode.speedup_vs_committed`` gate divides against this constant
#: rather than the live baseline file so the >= 5x claim keeps meaning
#: the same thing after BENCH_search.json is re-recorded.
COMMITTED_ENCODE_BASELINE_S = 7.5298e-3


def bench_encode(repeats: int = 20) -> dict:
    """Nonlinear encoder wall clock vs the committed pre-rewrite baseline.

    Times ``RandomProjectionEncoder.encode`` on the exact microbench
    workload the committed baseline was recorded on, plus the quantized
    in-fabric variant (wall clock, worst-case deviation from the float
    path, and the modeled fabric latency/energy of the batch).
    """
    from repro.hdc.encoder import RandomProjectionEncoder

    encoder = RandomProjectionEncoder(617, 2048, seed=0)
    batch = (
        np.random.default_rng(2).normal(size=(64, 617)).astype(np.float32)
    )
    encoder.encode(batch)  # warm: builds the sin(b) tile for this width
    t_encode = _best_of(lambda: encoder.encode(batch), repeats)

    quant = encoder.quantize()
    quant.encode(batch)
    t_quant = _best_of(lambda: quant.encode(batch), repeats)
    err = float(np.abs(quant.encode(batch) - encoder.encode(batch)).max())
    cost = quant.encode_cost(len(batch))
    return {
        "workload": "64 samples x 617 features -> D=2048, nonlinear",
        "committed_baseline_s": COMMITTED_ENCODE_BASELINE_S,
        "encode_s": t_encode,
        "speedup_vs_committed": COMMITTED_ENCODE_BASELINE_S / t_encode,
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
#: - ``rel_min``: the current value must be >= threshold * baseline
#:   (a fractional floor, e.g. 0.75 tolerates a 25% regression).
#: - ``rel_max``: the current value must be <= threshold * baseline
#:   (a fractional ceiling for timings and error metrics, e.g. 1.5
#:   tolerates a 50% slowdown before failing).
#: - ``true``: the current value must be exactly ``True`` (bit-exactness
#:   flags -- never negotiable).
#:
#: Metrics missing from the *baseline* are skipped (new benches can land
#: before their baseline is recorded); metrics missing from the current
#: *report* fail (a tracked kernel silently disappearing is itself a
#: regression).
TRACKED_GATES = (
    ("search_batch.speedup", "abs_min", 10.0),
    ("search_batch.bit_exact", "true", None),
    ("kernels.packed_speedup_vs_loop", "abs_min", 10.0),
    ("kernels.bit_exact", "true", None),
    ("topk.speedup", "abs_min", 1.0),
    ("topk.exact", "true", None),
    ("resilient.speedup", "abs_min", 10.0),
    ("resilient.bit_exact", "true", None),
    ("monte_carlo.speedup", "rel_min", 0.75),
    ("monte_carlo.bit_identical", "true", None),
    ("ann.speedup", "abs_min", 10.0),
    ("ann.recall_at_10", "abs_min", 0.95),
    ("ann.exact_full_probe", "true", None),
    ("ann.reopen_identical", "true", None),
    ("encode.speedup_vs_committed", "abs_min", 5.0),
    ("encode.encode_s", "rel_max", 1.5),
    ("mvm.bit_exact", "true", None),
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
        elif kind in ("rel_min", "rel_max"):
            if base is None:
                row["status"] = "skipped"
                row["reason"] = "metric missing from baseline"
            else:
                row["threshold"] = threshold * base
                if kind == "rel_min":
                    ok = current >= threshold * base
                else:
                    ok = current <= threshold * base
                row["status"] = "pass" if ok else "fail"
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
            op = "<=" if row["kind"] == "rel_max" else ">="
            detail += f" threshold{op}{row['threshold']:.3g}"
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
        "--workers", type=int, default=None,
        help="Monte Carlo worker count for the parallel timing "
             "(default: auto via resolve_worker_count)",
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
        "kernels": bench_kernels(),
        "topk": bench_topk(),
        "resilient": bench_resilient(),
        "monte_carlo": bench_monte_carlo(args.mc_runs, args.workers),
        "telemetry_overhead": bench_telemetry_overhead(),
        "coalesce": bench_coalesce(),
        "ann": bench_ann(n_rows=args.ann_rows),
        "encode": bench_encode(),
        "mvm": bench_mvm(),
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
    print(f"topk:         {topk['speedup']:.2f}x vs ranking a full search "
          f"(exact={topk['exact']})")
    print(f"resilient:    {res['batch_s'] * 1e3:.2f} ms per batch "
          f"({res['speedup']:.1f}x vs loop, bit_exact={res['bit_exact']})")
    mc_note = (f" [auto fell back to serial: {mc['fallback_reason']}]"
               if mc["fallback_reason"] else "")
    print(f"monte_carlo:  {mc['speedup']:.2f}x with {mc['n_workers']} "
          f"workers (bit_identical={mc['bit_identical']}){mc_note}")
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
          f"{ann['rows']:,} rows ({ann['speedup']:.1f}x vs exhaustive, "
          f"recall@10 {ann['recall_at_10']:.4f}, "
          f"exact_full_probe={ann['exact_full_probe']}, "
          f"reopen_identical={ann['reopen_identical']})")
    enc = report["encode"]
    print(f"encode:       {enc['encode_s'] * 1e3:.2f} ms "
          f"({enc['speedup_vs_committed']:.2f}x vs committed baseline, "
          f"quantized {enc['quantized_s'] * 1e3:.2f} ms, "
          f"max err {enc['quantized_max_abs_err']:.3g})")
    mvm = report["mvm"]
    print(f"mvm:          gemm {mvm['gemm_s'] * 1e3:.2f} ms, loop "
          f"{mvm['loop_s'] * 1e3:.2f} ms (bit_exact={mvm['bit_exact']})")
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
