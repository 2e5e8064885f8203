"""``python -m bench run|compare`` -- the repository benchmark.

``run`` drives the named workloads (default: all four), prints every
metric by name with its unit, checks every answer against the oracle,
and ends its standard output with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics; ``--trace 1`` wraps each
layer's public callables and reports the per-layer ledger instead,
with the tracing overhead measured against an untraced run.  The
orchestrating thread and the program run on separate CPUs
(:func:`bench.probe.isolation`).  A
wrong answer makes the run exit 1 (after naming the workload and the
query).  ``compare`` turns two sets of ``--out`` files into
better / same / worse / unresolved verdicts with the bounds of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> Optional[str]:
    """HEAD of the checkout's own repository; None outside a git clone
    (git is not allowed to search the parent directories)."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        head = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def _run_one(name: str, args, trace: bool, repeats: int) -> Dict:
    """One workload in its own work directory, deleted afterwards."""
    from bench import remote, workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if name == "serve-remote":
            return remote.run(ROOT, workdir, args.seed, args.seconds,
                              trace, args.quick, repeats, args.pin)
        return workloads.run_in_process(
            name, ROOT, workdir, args.seed, args.seconds, trace,
            args.quick, repeats, args.pin,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_traced(name: str, args) -> Dict:
    """The traced run, after an untraced one of the same seed whose
    throughput gives the tracing overhead."""
    untraced = _run_one(name, args, trace=False, repeats=1)
    result = _run_one(name, args, trace=True, repeats=1)
    result["errors"] = untraced["errors"] + result["errors"]
    qps = untraced["metrics"]["throughput_qps"][0]
    traced_qps = result["metrics"]["throughput_qps"][0]
    result.setdefault("ledger_extra", {})["overhead_pct"] = (
        100.0 * (qps / traced_qps - 1.0)
    )
    return result


def _metric_block(result: Dict, trace: bool) -> Dict[str, tuple]:
    if not trace:
        return result["metrics"]
    from bench.ledger import layer_metrics

    return layer_metrics(result["ledger"], result["ledger_extra"])


def cmd_run(args) -> int:
    import numpy as np

    from bench import workloads

    names: List[str] = args.workload or list(workloads.WORKLOADS)
    declared = [m["name"] for m in _spec()["per_layer" if args.trace
                                          else "end_to_end"]]
    report: Dict = {
        "bench": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            # Whether the probe had a CPU of its own (see bench/probe.py).
            "isolated": args.pin is not None,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "comparable": not args.quick,
        },
        "workloads": {},
    }
    all_errors: List[str] = []
    attempted = failed = 0
    flat: Dict[str, Dict] = {}
    for name in names:
        if args.trace:
            result = _run_traced(name, args)
        else:
            result = _run_one(
                name, args, trace=False,
                repeats=1 if args.quick else workloads.SETUP_REPEATS,
            )
        metrics = _metric_block(result, bool(args.trace))
        for metric, (value, unit) in metrics.items():
            print(f"{name:<13} {metric:<36} {value:>14.6g} {unit}")
        for key, value in result["diagnostics"].items():
            if not isinstance(value, (dict, list)):
                print(f"{name:<13} {'(diagnostic) ' + key:<36} {value}")
        for error in result["errors"][:20]:
            print(f"WRONG ANSWER {error}", file=sys.stderr)
        if len(result["errors"]) > 20:
            print(f"... {len(result['errors']) - 20} more wrong answers",
                  file=sys.stderr)
        all_errors.extend(result["errors"])
        attempted += result["attempted"]
        failed += result["failed"]
        entries = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
        report["workloads"][name] = {
            "correct": not result["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": entries,
            "diagnostics": result["diagnostics"],
        }
        if args.trace:
            report["workloads"][name]["ledger"] = result["ledger"]
        # The result line carries exactly the metrics BENCHMARK.json
        # declares; the table above also shows the ledger's detail.
        for metric in declared:
            key = metric if len(names) == 1 else f"{name}/{metric}"
            flat[key] = entries[metric]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": not all_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": flat,
    }))
    return 0 if not all_errors else 1


def cmd_compare(args) -> int:
    from bench.compare import compare, format_rows

    rows, skipped = compare(args.parent, args.change, _spec())
    for run in skipped:
        print(f"left out (generator fell behind, valid: false): {run}")
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and check answers")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0,
                     help="derives every corpus, query stream and dataset")
    run.add_argument("--seconds", type=float,
                     help="length of each measured phase (default: "
                          "run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="1: report the per-layer ledger instead")
    run.add_argument("--quick", action="store_true",
                     help="small sizes for tests; results do not compare")
    run.add_argument("--out", help="write the full report as JSON here")
    cmp = sub.add_parser("compare", help="parent vs change verdicts")
    cmp.add_argument("--parent", nargs="+", required=True,
                     help="result files (or globs) of the parent")
    cmp.add_argument("--change", nargs="+", required=True,
                     help="result files (or globs) of the change")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return cmd_compare(args)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import probe

    try:
        with probe.isolation() as args.pin:
            return cmd_run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
