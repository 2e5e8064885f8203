"""Command-line interface: regenerate the paper's evaluation as text.

Usage::

    python -m repro list                 # available experiments
    python -m repro run table1           # one experiment, full size
    python -m repro run fig6 --fast      # reduced size for a quick look
    python -m repro report               # everything, in paper order

The CLI is a thin layer over :mod:`repro.experiments`; each entry names
the driver and its reduced-size keyword overrides.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.log import configure_logging, get_logger

_log = get_logger(__name__)


def emit(text: str = "") -> None:
    """The CLI's one user-facing output channel.

    Experiment results are the deliverable, not diagnostics: they go to
    stdout unconditionally, independent of the logging configuration
    (which owns stderr).  This helper is the single place in the package
    allowed to ``print``.  Output is flushed eagerly so subprocess
    drivers (the socket smoke test reads ``repro serve``'s endpoint
    line from a pipe) see it immediately.
    """
    print(text, flush=True)


def _table1() -> str:
    from repro.experiments.table1_comparison import format_table1, run_table1

    return format_table1(run_table1())


def _fig1(fast: bool) -> str:
    from repro.experiments.fig1_device import format_fig1, run_fig1

    kwargs = {"n_devices": 12, "n_points": 21} if fast else {}
    return format_fig1(run_fig1(**kwargs))


def _fig2(fast: bool) -> str:
    from repro.experiments.fig2_cell import format_fig2, run_fig2

    return format_fig2(run_fig2(dt=4e-12 if fast else 2e-12))


def _fig4(fast: bool) -> str:
    from repro.experiments.fig4_linearity import format_fig4, run_fig4

    parts = [format_fig4(run_fig4(n_stages=32, backend="analytic"))]
    if not fast:
        parts.append(
            format_fig4(
                run_fig4(n_stages=8, backend="transient",
                         mismatch_counts=(0, 2, 4, 6, 8), dt=4e-12)
            )
        )
    return "\n\n".join(parts)


def _fig5(fast: bool) -> str:
    from repro.experiments.fig5_energy_delay import (
        format_fig5_ab,
        format_fig5_cd,
        run_fig5_ab,
        run_fig5_cd,
    )

    if fast:
        ab = run_fig5_ab(c_loads_f=[6e-15, 24e-15, 96e-15],
                         stage_counts=[8, 32])
    else:
        ab = run_fig5_ab()
    return format_fig5_ab(ab) + "\n\n" + format_fig5_cd(run_fig5_cd())


def _fig6(fast: bool) -> str:
    from repro.experiments.fig6_montecarlo import format_fig6, run_fig6

    kwargs = (
        {"n_runs": 120, "sigmas_mv": (20.0, 60.0)} if fast else {"n_runs": 500}
    )
    return format_fig6(run_fig6(**kwargs))


def _fig7(fast: bool) -> str:
    from repro.experiments.fig7_hdc_accuracy import format_fig7, run_fig7

    if fast:
        result = run_fig7(dimensions=(512, 2048, 10240),
                          precisions=(1, 2, 4, 32), dataset_scale=0.3,
                          epochs=4, include_hamming=False)
    else:
        result = run_fig7()
    return format_fig7(result)


def _fig8(fast: bool) -> str:
    from repro.experiments.fig8_gpu_comparison import format_fig8, run_fig8

    return format_fig8(run_fig8())


def _ablations(fast: bool) -> str:
    from repro.experiments.ablations import (
        format_ablation_precision_margin,
        format_ablation_quantizer,
        format_ablation_two_step,
        format_ablation_vc_vs_vr,
        run_ablation_precision_margin,
        run_ablation_quantizer,
        run_ablation_two_step,
        run_ablation_vc_vs_vr,
    )

    n_runs = 100 if fast else 300
    parts = [
        format_ablation_vc_vs_vr(run_ablation_vc_vs_vr(n_runs=n_runs)),
        format_ablation_two_step(run_ablation_two_step()),
        format_ablation_precision_margin(
            run_ablation_precision_margin(n_cells=1000 if fast else 4000)
        ),
        format_ablation_quantizer(
            run_ablation_quantizer(dimension=1024 if fast else 2048)
        ),
    ]
    return "\n\n".join(parts)


def _retention(fast: bool) -> str:
    from repro.experiments.ext_retention import (
        format_endurance,
        format_retention,
        run_endurance_study,
        run_retention_study,
    )

    kwargs = {"n_rows": 8, "n_queries": 8} if fast else {}
    return (
        format_retention(run_retention_study(**kwargs))
        + "\n\n"
        + format_endurance(run_endurance_study())
    )


def _temperature(fast: bool) -> str:
    from repro.experiments.ext_temperature import (
        format_temperature,
        run_temperature_study,
    )

    return format_temperature(run_temperature_study())


def _online(fast: bool) -> str:
    from repro.datasets.synthetic import make_isolet_like
    from repro.experiments.ext_online import format_online, run_online_study

    if fast:
        dataset = make_isolet_like(400, 200)
        return format_online(run_online_study(dataset=dataset, dimension=1024))
    return format_online(run_online_study())


def _batch(fast: bool) -> str:
    from repro.experiments.ext_batch import format_batch_study, run_batch_study

    return format_batch_study(run_batch_study())


def _dse(fast: bool) -> str:
    from repro.analysis.pareto import (
        evaluate_design_space,
        knee_point,
        pareto_front,
    )

    points = evaluate_design_space()
    front = pareto_front(points)
    lines = [
        f"evaluated {len(points)} design points; Pareto front ({len(front)}):"
    ]
    for point in sorted(front, key=lambda p: p.energy_per_bit_j):
        c = point.config
        lines.append(
            f"  V_DD={c.vdd:.1f}V C={c.c_load_f * 1e15:.0f}fF "
            f"N={c.n_stages} -> {point.energy_per_bit_j * 1e15:.3f} fJ/bit, "
            f"{point.latency_s * 1e9:.2f} ns, {point.area_um2:.0f} um^2"
        )
    best = knee_point(front)
    lines.append(
        f"balanced knee point: V_DD={best.config.vdd:.1f} V, "
        f"C={best.config.c_load_f * 1e15:.0f} fF, N={best.config.n_stages}"
    )
    return "\n".join(lines)


def _resilience(fast: bool) -> str:
    from repro.experiments.ext_resilience import (
        format_resilience,
        run_resilience_study,
    )

    kwargs = {"n_rows": 8, "n_trials": 6, "n_queries": 4} if fast else {}
    return format_resilience(run_resilience_study(**kwargs))


def _area(fast: bool) -> str:
    from repro.analysis.reporting import format_table
    from repro.core.area import cell_area_comparison, density_advantage

    table = cell_area_comparison()
    rows = [{"design": name, **fields} for name, fields in table.items()]
    body = format_table(rows, title="Cell-composition area at a common 40 nm node")
    return (
        f"{body}\nbit-density advantage vs TIMAQ cell: "
        f"{density_advantage():.1f}x"
    )


def _chaos(fast: bool) -> str:
    from repro.experiments.ext_chaos import format_chaos, run_chaos_study

    return format_chaos(run_chaos_study(quick=fast))


def _encode(fast: bool) -> str:
    from repro.experiments.ext_encode import (
        format_encode_study,
        run_encode_study,
    )

    return format_encode_study(run_encode_study(quick=fast))


#: Experiment registry: name -> (description, runner(fast) -> text).
EXPERIMENTS: Dict[str, Tuple[str, Callable[[bool], str]]] = {
    "table1": (
        "Table I energy/bit comparison",
        lambda fast: _table1(),
    ),
    "fig1": ("FeFET I_D-V_G curves and device spread", _fig1),
    "fig2": ("IMC cell match/mismatch transients", _fig2),
    "fig4": ("Delay-vs-mismatch linearity", _fig4),
    "fig5": ("Energy/delay scaling (C, N, V_DD)", _fig5),
    "fig6": ("Monte Carlo variation robustness", _fig6),
    "fig7": ("HDC accuracy vs precision x dimension", _fig7),
    "fig8": ("TD-AM vs GPU speedup/energy", _fig8),
    "ablations": ("Design-choice ablations", _ablations),
    "retention": ("Extension: retention & endurance", _retention),
    "temperature": ("Extension: temperature & replica calibration", _temperature),
    "online": ("Extension: quantitative-similarity learning", _online),
    "batch": ("Extension: batched-inference crossover vs GPU", _batch),
    "dse": ("Extension: design-space Pareto exploration", _dse),
    "area": ("Extension: cell/array area model", _area),
    "resilience": ("Extension: BIST/repair yield & refresh schedule", _resilience),
    "chaos": ("Extension: chaos suite over the serving layer", _chaos),
    "encode": (
        "Extension: in-fabric encode-then-search pipeline", _encode
    ),
}

#: Paper-order listing for the full report.
REPORT_ORDER = [
    "fig1", "fig2", "fig4", "fig5", "table1", "fig6", "fig7", "fig8",
    "ablations", "retention", "temperature", "online", "batch", "dse",
    "area", "resilience", "chaos", "encode",
]


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared ``--log-*`` / ``--trace-out`` / ``--metrics-out`` options."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="diagnostic log level (debug/info/warning/error; default: "
             "$REPRO_LOG_LEVEL or warning); logs go to stderr",
    )
    group.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines instead of console text",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable telemetry and write a Chrome-trace JSON "
             "(chrome://tracing or Perfetto) on exit",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="enable telemetry and write the metrics registry as JSON "
             "on exit",
    )
    return parent


def _telemetry_begin(args: argparse.Namespace) -> None:
    """Configure logging and arm telemetry per the parsed options."""
    from repro import telemetry

    configure_logging(level=args.log_level, json_lines=args.log_json)
    if (
        args.trace_out
        or args.metrics_out
        or getattr(args, "flights_out", None)
    ):
        telemetry.enable()


def _telemetry_end(args: argparse.Namespace) -> None:
    """Write the requested trace/metrics artifacts."""
    from repro import telemetry

    if args.trace_out:
        telemetry.dump_chrome_trace(args.trace_out)
        _log.info("trace written", extra={"path": args.trace_out})
    if args.metrics_out:
        telemetry.get_registry().dump_json(args.metrics_out)
        _log.info("metrics written", extra={"path": args.metrics_out})


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures as text.",
    )
    telemetry_options = _telemetry_parent()
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment",
                         parents=[telemetry_options])
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--fast", action="store_true",
                     help="reduced problem sizes")
    report = sub.add_parser("report", help="run every experiment in order",
                            parents=[telemetry_options])
    report.add_argument("--fast", action="store_true",
                        help="reduced problem sizes")
    report.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report to a file")
    resilience = sub.add_parser(
        "resilience",
        help="BIST/repair yield-vs-spares study with tunable fault rates",
        parents=[telemetry_options],
    )
    resilience.add_argument(
        "--spares", type=int, nargs="+", default=[0, 1, 2, 4],
        metavar="N", help="spare-row counts to sweep",
    )
    resilience.add_argument(
        "--cell-fault-rate", type=float, default=0.002,
        help="per-cell hard-fault probability",
    )
    resilience.add_argument(
        "--dead-row-rate", type=float, default=0.05,
        help="per-row chain-failure probability",
    )
    resilience.add_argument(
        "--rows", type=int, default=16, help="logical (data) rows",
    )
    resilience.add_argument(
        "--trials", type=int, default=12, help="Monte Carlo trials per point",
    )
    resilience.add_argument(
        "--seed", type=int, default=11, help="fault-map seed",
    )
    chaos = sub.add_parser(
        "chaos",
        help="chaos suite over the fault-tolerant serving layer "
             "(exits non-zero on any SLO violation)",
        parents=[telemetry_options],
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="CI-sized scenarios (same coverage, fewer requests)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="master seed for data, fault maps, and retry jitter",
    )
    chaos.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="subset of scenario names (default: all)",
    )
    chaos.add_argument(
        "--flights-out", metavar="FILE", default=None,
        help="write the overload scenario's tail-sampled span trees "
             "to FILE (JSON)",
    )
    loadtest = sub.add_parser(
        "loadtest",
        help="deterministic open-loop load test of the coalescing "
             "front-end (fake clock; exits non-zero if any answer "
             "was wrong without the degraded flag)",
        parents=[telemetry_options],
    )
    loadtest.add_argument(
        "--rate", type=float, default=2000.0, metavar="QPS",
        help="offered Poisson arrival rate, requests/second",
    )
    loadtest.add_argument(
        "--duration", type=float, default=0.25, metavar="S",
        help="simulated arrival span in seconds",
    )
    loadtest.add_argument(
        "--deadline", type=float, default=0.050, metavar="S",
        help="per-request deadline from nominal arrival",
    )
    loadtest.add_argument(
        "--tenants", type=int, default=4, help="number of tenants",
    )
    loadtest.add_argument(
        "--tenant-quota", type=float, default=None, metavar="QPS",
        help="per-tenant token-bucket rate (default: unlimited)",
    )
    loadtest.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded intake queue depth (beyond it, load is shed)",
    )
    loadtest.add_argument(
        "--window", type=float, default=0.002, metavar="S",
        help="coalescing window",
    )
    loadtest.add_argument(
        "--max-batch", type=int, default=32,
        help="coalesced batch-size cap",
    )
    loadtest.add_argument(
        "--kind", choices=["search", "topk"], default="search",
        help="request type to replay",
    )
    loadtest.add_argument(
        "--k", type=int, default=3, help="top-k size (--kind topk)",
    )
    loadtest.add_argument(
        "--seed", type=int, default=7,
        help="master seed of the arrival/tenant/query streams",
    )
    loadtest.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="also write the report as JSON (CI artifact format)",
    )
    loadtest.add_argument(
        "--flights-out", metavar="FILE", default=None,
        help="enable telemetry and tail-sample full span trees of "
             "slow/failed requests to FILE (JSON)",
    )
    remote_group = loadtest.add_argument_group(
        "remote transport (socket mode)"
    )
    remote_group.add_argument(
        "--remote", action="store_true",
        help="offer the load over TCP to a running `repro serve` "
             "instead of an in-process stack; answers are scored "
             "bit-exactly against a seeded in-process oracle, so "
             "--seed/--rows/--shards/--stages must match the server's",
    )
    remote_group.add_argument(
        "--host", default="127.0.0.1", help="server host (--remote)",
    )
    remote_group.add_argument(
        "--port", type=int, default=0, help="server port (--remote)",
    )
    remote_group.add_argument(
        "--workers", type=int, default=16, metavar="N",
        help="client worker threads = in-flight ceiling (--remote)",
    )
    corpus_group = loadtest.add_argument_group(
        "corpus / cost model (both modes; must match the server "
        "when --remote)"
    )
    corpus_group.add_argument(
        "--rows", type=int, default=16, help="stored rows",
    )
    corpus_group.add_argument(
        "--shards", type=int, default=2, help="replica shards",
    )
    corpus_group.add_argument(
        "--stages", type=int, default=16,
        help="stages per row (vector dimensionality)",
    )
    corpus_group.add_argument(
        "--attempt-base", type=float, default=0.0005, metavar="S",
        help="shard cost per attempt, fixed part",
    )
    corpus_group.add_argument(
        "--attempt-per-query", type=float, default=0.0001, metavar="S",
        help="shard cost per query in the batch",
    )
    serve = sub.add_parser(
        "serve",
        help="serve the coalescing front end over a TCP socket; "
             "drains gracefully on SIGTERM/SIGINT",
        parents=[telemetry_options],
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 = ephemeral; the bound endpoint is "
             "printed once listening)",
    )
    serve.add_argument(
        "--seed", type=int, default=7,
        help="corpus seed; a load generator pointing here must use "
             "the same seed/rows/shards/stages to score honestly",
    )
    serve.add_argument(
        "--rows", type=int, default=16, help="stored rows",
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="replica shards",
    )
    serve.add_argument(
        "--stages", type=int, default=16,
        help="stages per row (vector dimensionality)",
    )
    serve.add_argument(
        "--deadline", type=float, default=0.050, metavar="S",
        help="default per-request deadline",
    )
    serve.add_argument(
        "--window", type=float, default=0.002, metavar="S",
        help="coalescing window",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="coalesced batch-size cap",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded intake queue depth",
    )
    serve.add_argument(
        "--tenant-quota", type=float, default=None, metavar="QPS",
        help="per-tenant token-bucket rate (default: unlimited)",
    )
    serve.add_argument(
        "--attempt-base", type=float, default=0.0005, metavar="S",
        help="shard cost per attempt, fixed part (the smoke test's "
             "capacity-ceiling knob)",
    )
    serve.add_argument(
        "--attempt-per-query", type=float, default=0.0001, metavar="S",
        help="shard cost per query in the batch",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=8, metavar="N",
        help="per-connection in-flight request window",
    )
    serve.add_argument(
        "--frame-timeout", type=float, default=30.0, metavar="S",
        help="idle-read timeout before a stalled peer is evicted",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="S",
        help="graceful-drain budget for in-flight requests",
    )
    slo = sub.add_parser(
        "slo",
        help="SLO engine over the serving stack (verdict tables, "
             "error budgets, burn rates)",
    )
    slo_sub = slo.add_subparsers(dest="slo_command")
    slo_report = slo_sub.add_parser(
        "report",
        help="run a traced deterministic loadtest, judge it against "
             "the serving SLOs, and print the verdict table (exits "
             "non-zero on any violated objective)",
        parents=[telemetry_options],
    )
    slo_report.add_argument(
        "--rate", type=float, default=2000.0, metavar="QPS",
        help="offered Poisson arrival rate, requests/second",
    )
    slo_report.add_argument(
        "--duration", type=float, default=0.25, metavar="S",
        help="simulated arrival span in seconds",
    )
    slo_report.add_argument(
        "--deadline", type=float, default=0.050, metavar="S",
        help="per-request deadline from nominal arrival",
    )
    slo_report.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded intake queue depth",
    )
    slo_report.add_argument(
        "--seed", type=int, default=7,
        help="master seed of the arrival/tenant/query streams",
    )
    slo_report.add_argument(
        "--p50-target", type=float, default=0.005, metavar="S",
        help="latency SLO: p50 objective in seconds",
    )
    slo_report.add_argument(
        "--p99-target", type=float, default=0.050, metavar="S",
        help="latency SLO: p99 objective in seconds",
    )
    slo_report.add_argument(
        "--max-shed-rate", type=float, default=0.25,
        help="shed-rate SLO: max fraction of offered load shed",
    )
    slo_report.add_argument(
        "--max-error-rate", type=float, default=0.05,
        help="error-rate SLO: max fraction of completions failed",
    )
    slo_report.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="write the verdicts + latency cross-check as JSON "
             "(CI artifact format)",
    )
    slo_report.add_argument(
        "--flights-out", metavar="FILE", default=None,
        help="tail-sample full span trees of slow/failed requests "
             "to FILE (JSON)",
    )
    index = sub.add_parser(
        "index",
        help="build / probe the memmapped million-row ANN index",
    )
    index_sub = index.add_subparsers(dest="index_command")
    index_build = index_sub.add_parser(
        "build",
        help="pack a seeded synthetic clustered corpus into a "
             "published bit-plane store",
        parents=[telemetry_options],
    )
    index_build.add_argument(
        "--out", required=True, metavar="DIR", help="store directory",
    )
    index_build.add_argument(
        "--rows", type=int, default=100_000, help="corpus rows",
    )
    index_build.add_argument(
        "--stages", type=int, default=64,
        help="stages per row (vector dimensionality)",
    )
    index_build.add_argument(
        "--bits", type=int, default=2,
        help="element precision in bits",
    )
    index_build.add_argument(
        "--clusters", type=int, default=64,
        help="coarse-quantizer clusters (= max shards)",
    )
    index_build.add_argument(
        "--noise", type=float, default=0.08,
        help="within-cluster per-stage re-draw probability",
    )
    index_build.add_argument(
        "--sample", type=int, default=16384,
        help="rows sampled for the quantizer fit",
    )
    index_build.add_argument(
        "--seed", type=int, default=7, help="corpus + clustering seed",
    )
    index_search = index_sub.add_parser(
        "search",
        help="reopen a published store and probe it (exits non-zero "
             "when --min-recall or --max-rss-mb is violated)",
        parents=[telemetry_options],
    )
    index_search.add_argument(
        "--store", required=True, metavar="DIR", help="store directory",
    )
    index_search.add_argument(
        "--queries", type=int, default=64, help="query batch size",
    )
    index_search.add_argument(
        "--k", type=int, default=10, help="rows returned per query",
    )
    index_search.add_argument(
        "--nprobe", type=int, default=8,
        help="clusters probed per query",
    )
    index_search.add_argument(
        "--query-noise", type=float, default=0.08,
        help="per-stage re-draw probability deriving queries from "
             "stored rows",
    )
    index_search.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats (best-of)",
    )
    index_search.add_argument(
        "--seed", type=int, default=11, help="query sampling seed",
    )
    index_search.add_argument(
        "--min-recall", type=float, default=None, metavar="R",
        help="fail (exit 1) when recall@k vs the exhaustive answer "
             "falls below R",
    )
    index_search.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="fail (exit 1) when this process's peak RSS exceeds MB "
             "(the memmap-bounded-memory assertion)",
    )
    index_search.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="also write the probe report as JSON (CI artifact format)",
    )
    args = parser.parse_args(argv)

    if args.command == "index":
        if args.index_command not in ("build", "search"):
            index.print_help()
            return 2
        _telemetry_begin(args)
        try:
            from repro.index.cli import run_index_build, run_index_search

            if args.index_command == "build":
                return run_index_build(args)
            return run_index_search(args)
        finally:
            _telemetry_end(args)

    if args.command == "list":
        for name in REPORT_ORDER:
            description, _ = EXPERIMENTS[name]
            emit(f"{name:<10} {description}")
        return 0
    if args.command == "slo":
        if args.slo_command != "report":
            slo.print_help()
            return 2
        _telemetry_begin(args)
        try:
            return _dispatch(args)
        finally:
            _telemetry_end(args)
    if args.command not in (
        "run", "resilience", "chaos", "loadtest", "serve", "report"
    ):
        parser.print_help()
        return 2
    _telemetry_begin(args)
    try:
        return _dispatch(args)
    finally:
        _telemetry_end(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run one telemetry-carrying subcommand; returns an exit code."""
    if args.command == "run":
        _, runner = EXPERIMENTS[args.experiment]
        _log.info(
            "running experiment",
            extra={"experiment": args.experiment, "fast": args.fast},
        )
        emit(runner(args.fast))
        return 0
    if args.command == "resilience":
        from repro.experiments.ext_resilience import (
            format_resilience,
            run_resilience_study,
        )

        emit(
            format_resilience(
                run_resilience_study(
                    spare_counts=args.spares,
                    cell_fault_rate=args.cell_fault_rate,
                    dead_row_rate=args.dead_row_rate,
                    n_rows=args.rows,
                    n_trials=args.trials,
                    seed=args.seed,
                )
            )
        )
        return 0
    if args.command == "chaos":
        import repro.service.chaos as _chaos_mod
        from repro.experiments.ext_chaos import format_chaos, run_chaos_study

        chaos_report = run_chaos_study(
            quick=args.quick, seed=args.seed, scenarios=args.scenarios
        )
        emit(format_chaos(chaos_report))
        if args.flights_out and _chaos_mod.last_flight_recorder is not None:
            _chaos_mod.last_flight_recorder.dump_json(args.flights_out)
            emit(f"tail-sampled flights written to {args.flights_out}")
        return 0 if chaos_report.passed else 1
    if args.command == "loadtest":
        import math as _math

        from repro.service.loadgen import (
            LoadConfig,
            format_load_report,
            run_load,
        )

        load_config = LoadConfig(
            duration_s=args.duration,
            rate_per_s=args.rate,
            deadline_s=args.deadline,
            n_tenants=args.tenants,
            quota_rate_per_s=(
                args.tenant_quota
                if args.tenant_quota is not None
                else _math.inf
            ),
            max_queue_depth=args.queue_depth,
            window_s=args.window,
            max_batch=args.max_batch,
            attempt_base_s=args.attempt_base,
            attempt_per_query_s=args.attempt_per_query,
            kind=args.kind,
            k=args.k,
            n_rows=args.rows,
            n_shards=args.shards,
            n_stages=args.stages,
            seed=args.seed,
        )
        if args.remote:
            if args.port <= 0:
                emit("loadtest --remote requires --port "
                     "(the endpoint `repro serve` printed)")
                return 2
            if args.flights_out:
                emit("--flights-out is in-process only; span trees "
                     "live on the server side in --remote mode")
            from repro.net.loadgen import run_remote_load

            load_report = run_remote_load(
                load_config,
                host=args.host,
                port=args.port,
                n_workers=args.workers,
            )
        else:
            from repro.telemetry.flight import FlightRecorder

            recorder = (
                FlightRecorder(
                    capacity=4096, slow_threshold_s=args.deadline
                )
                if args.flights_out
                else None
            )
            load_report = run_load(
                load_config, flight_recorder=recorder
            )
            if recorder is not None:
                recorder.dump_json(args.flights_out)
                emit(
                    f"tail-sampled flights written to {args.flights_out}"
                )
        emit(format_load_report(load_report))
        if args.json_out:
            with open(args.json_out, "w") as handle:
                handle.write(load_report.to_json() + "\n")
            emit(f"json report written to {args.json_out}")
        return 0 if load_report.honest else 1
    if args.command == "serve":
        return _serve(args)
    if args.command == "slo":
        return _slo_report(args)
    sections: List[str] = []
    for name in REPORT_ORDER:
        description, runner = EXPERIMENTS[name]
        header = "=" * 72 + f"\n{name}: {description}\n" + "=" * 72
        emit(header)
        start = time.time()
        body = runner(args.fast)
        emit(body)
        emit(f"[{name} done in {time.time() - start:.1f} s]\n")
        sections.append(f"{header}\n{body}\n")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(sections))
        emit(f"report written to {args.output}")
    return 0


def _serve(args: argparse.Namespace) -> int:
    """``repro serve``: socket server until SIGTERM/SIGINT, then drain."""
    import math as _math

    from repro.net.server import serve_until_signal
    from repro.service.stack import LoadConfig, build_server_stack

    config = LoadConfig(
        deadline_s=args.deadline,
        quota_rate_per_s=(
            args.tenant_quota
            if args.tenant_quota is not None
            else _math.inf
        ),
        max_queue_depth=args.queue_depth,
        window_s=args.window,
        max_batch=args.max_batch,
        attempt_base_s=args.attempt_base,
        attempt_per_query_s=args.attempt_per_query,
        n_rows=args.rows,
        n_shards=args.shards,
        n_stages=args.stages,
        seed=args.seed,
    )
    _, frontend = build_server_stack(config)
    _log.info(
        "server stack built",
        extra={
            "rows": config.n_rows,
            "shards": config.n_shards,
            "stages": config.n_stages,
            "seed": config.seed,
        },
    )

    def on_listening(host: str, port: int) -> None:
        # The machine-readable endpoint line the smoke test parses.
        emit(
            f"listening on {host}:{port} "
            f"(seed={config.seed} rows={config.n_rows} "
            f"shards={config.n_shards} stages={config.n_stages})"
        )

    serve_until_signal(
        frontend,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        frame_timeout_s=args.frame_timeout,
        drain_grace_s=args.drain_grace,
        on_listening=on_listening,
    )
    emit("drained; exiting")
    return 0


def _slo_report(args: argparse.Namespace) -> int:
    """``repro slo report``: traced loadtest -> verdict table."""
    import json as _json

    from repro import telemetry
    from repro.service.loadgen import (
        LoadConfig,
        format_load_report,
        run_load,
    )
    from repro.telemetry.flight import FlightRecorder
    from repro.telemetry.slo import (
        SLOEngine,
        default_serving_slos,
        format_slo_report,
    )

    # The SLO engine reads the live registry and the flight recorder
    # needs span trees: telemetry is always on for this command.
    telemetry.enable()
    recorder = FlightRecorder(
        capacity=4096, slow_threshold_s=args.deadline
    )
    engine = SLOEngine(
        default_serving_slos(
            latency_p50_s=args.p50_target,
            latency_p99_s=args.p99_target,
            max_shed_fraction=args.max_shed_rate,
            max_error_fraction=args.max_error_rate,
        ),
        windows_s=(args.duration / 4.0, args.duration),
    )
    load_report = run_load(
        LoadConfig(
            duration_s=args.duration,
            rate_per_s=args.rate,
            deadline_s=args.deadline,
            max_queue_depth=args.queue_depth,
            seed=args.seed,
        ),
        flight_recorder=recorder,
        slo_engine=engine,
    )
    slo_report = engine.evaluate()
    emit(format_load_report(load_report))
    emit()
    emit(format_slo_report(slo_report))
    if args.json_out:
        artifact = {
            "slo": slo_report.to_dict(),
            "load": load_report.to_dict(),
            # The sketch-vs-exact cross-check: the sketch p99 must sit
            # within its stated relative error of the exact sample p99
            # (rank convention -- the order statistic, not the
            # interpolated percentile).
            "latency_crosscheck": {
                "exact_p99_s": load_report.p99_s,
                "exact_p99_rank_s": load_report.p99_rank_s,
                "sketch_p99_s": load_report.sketch_p99_s,
                "relative_accuracy": load_report.sketch_relative_accuracy,
            },
            "flights": {
                "offered": recorder.offered,
                "kept": recorder.kept,
                "request_ids": recorder.request_ids(),
            },
        }
        with open(args.json_out, "w") as handle:
            _json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        emit(f"json report written to {args.json_out}")
    if args.flights_out:
        recorder.dump_json(args.flights_out)
        emit(f"tail-sampled flights written to {args.flights_out}")
    return 0 if slo_report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
