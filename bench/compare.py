"""Parent-vs-change verdicts over repeated benchmark runs.

Each end-to-end metric of each workload gets one verdict, by the rule
of the choosing-metrics guide (sections 6 to 8):

- ``better``: at least ten pairs were run, the change wins at least
  nine tenths of them (ties count for neither side), and the medians
  differ by more than the distance between the parent's quartiles;
- ``unresolved``: the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the metric's bound, unless every
  change run reads better than every parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``same``: none of the above.

Pairs are formed in the order the files are given.
"""

from __future__ import annotations

import glob
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = _quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """One metric's verdict; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = -1.0 if better == "lower" else 1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    q1, q3 = _quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > q3 - q1
    ):
        return "better"
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "same"


def _expand(patterns: Sequence[str]) -> List[Path]:
    paths: List[Path] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        paths.extend(Path(m) for m in (matches or [pattern]))
    return paths


def load(
    patterns: Sequence[str],
) -> Tuple[Dict[Tuple[str, str], List[float]], List[str]]:
    """``(workload, metric) -> values`` across the given result files,
    and the runs left out: those marked ``valid: false`` (the load
    generator fell behind its schedule, so its latencies are not the
    server's)."""
    values: Dict[Tuple[str, str], List[float]] = {}
    skipped: List[str] = []
    for path in _expand(patterns):
        doc = json.loads(path.read_text())
        if not doc["bench"]["comparable"]:
            raise ValueError(f"{path} is a --quick run; it does not compare")
        for workload, result in doc["workloads"].items():
            if result["diagnostics"].get("valid") is False:
                skipped.append(f"{path}: {workload}")
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    float(entry["value"])
                )
    return values, skipped


def compare(parent: Sequence[str], change: Sequence[str],
            spec: Dict) -> Tuple[List[Dict], List[str]]:
    """Every (workload, end-to-end metric) row with its verdict, and the
    runs :func:`load` left out."""
    before, skipped = load(parent)
    after, skipped_change = load(change)
    skipped += skipped_change
    rows = []
    for metric in spec["end_to_end"]:
        for (workload, name), p_values in sorted(before.items()):
            if name != metric["name"] or (workload, name) not in after:
                continue
            c_values = after[(workload, name)]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "bound": metric["bound"],
                "parent_median": statistics.median(p_values),
                "parent_spread": spread(p_values),
                "change_median": statistics.median(c_values),
                "change_spread": spread(c_values),
                "verdict": verdict(
                    p_values, c_values, metric["better"], metric["bound"]
                ),
            })
    return rows, skipped


def format_rows(rows: List[Dict]) -> str:
    """A fixed-width table of :func:`compare` rows."""
    header = (
        f"{'workload':<14} {'metric':<16} {'parent':>12} {'change':>12} "
        f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    lines = [header]
    for r in rows:
        delta = (r["change_median"] - r["parent_median"]) / abs(
            r["parent_median"]
        ) if r["parent_median"] else float("inf")
        lines.append(
            f"{r['workload']:<14} {r['metric']:<16} "
            f"{r['parent_median']:>12.5g} {r['change_median']:>12.5g} "
            f"{delta:>+8.1%} "
            f"{max(r['parent_spread'], r['change_spread']):>7.1%} "
            f"{r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)
