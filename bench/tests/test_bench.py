"""The benchmark's own tests, in ``--quick`` mode.

Run with ``python -m pytest bench/tests`` from the repository root (the
default test run collects ``tests/`` only).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import __main__ as cli
from bench import probe, remote, workloads
from bench.compare import load, verdict
from bench.ledger import balance

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--seconds", "1",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


_WRONG_ROW = '''
import dataclasses

from repro.resilience import resilient

_top_k_batch = resilient.ResilientTDAMArray.top_k_batch


def top_k_batch(self, queries, k, chunk=None):
    result = _top_k_batch(self, queries, k, chunk)
    rows = result.rows.copy()
    rows[0, [0, 1]] = rows[0, [1, 0]]
    return dataclasses.replace(result, rows=rows)


resilient.ResilientTDAMArray.top_k_batch = top_k_batch
'''


def test_a_wrong_row_fails_the_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "sitecustomize.py").write_text(_WRONG_ROW)
    child_env = workloads.child_env

    def patched_env(root, workdir, tag):
        env = child_env(root, workdir, tag)
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        return env

    monkeypatch.setattr(workloads, "child_env", patched_env)
    code = cli.main(["run", "--quick", "--seconds", "1",
                     "--workload", "scan-topk"])
    assert code != 0
    err = capsys.readouterr().err
    assert "WRONG ANSWER scan-topk: query 0 " in err


def test_a_server_whose_generator_fell_behind_is_replaced(
    tmp_path, monkeypatch
):
    # With no lag allowed, every measured server counts as fallen behind.
    monkeypatch.setattr(remote, "MAX_LAG_MS", -1.0)
    out = tmp_path / "result.json"
    code = cli.main(["run", "--quick", "--seconds", "1",
                     "--workload", "serve-remote", "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())["workloads"]["serve-remote"]
    assert result["diagnostics"]["replaced_servers"] == remote.MAX_REPLACED
    assert result["diagnostics"]["valid"] is False
    assert result["attempted"] > 0 and result["correct"] is True


#: The in-process workloads run every layer on the thread that measures;
#: serve-remote's server spreads its layers over several threads.
@pytest.mark.parametrize("workload", ["scan-topk", "ann-probe",
                                      "hdc-refresh"])
def test_ledger_self_times_sum_to_traced_wall_time(workload, tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--workload", workload, "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(out.read_text())["workloads"][workload]["ledger"]
    assert balance(ledger) < 0.01


def test_probe_scale_uses_the_median_of_nearby_probes():
    times = [0.0, 0.1, 0.2, 5.0]
    secs = [1.0, 2.0, 3.0, 4.0]
    got = probe.scale(times, secs, [0.1, 5.0, 10.0])
    # The last time has no probe within the window: the nearest one counts.
    assert got == pytest.approx(
        [probe.REFERENCE_S / 2.0, probe.REFERENCE_S / 4.0,
         probe.REFERENCE_S / 4.0]
    )


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="isolation needs two CPUs")
def test_isolation_keeps_the_program_off_the_probes_cpu():
    before = os.sched_getaffinity(0)
    with probe.isolation() as pin:
        own = os.sched_getaffinity(0)
        child = subprocess.run(
            [sys.executable, "-c",
             "import os; print(sorted(os.sched_getaffinity(0)))"],
            preexec_fn=pin, capture_output=True, text=True,
        )
    assert pin is not None
    program = set(json.loads(child.stdout))
    assert program and not own & program
    assert own | program == before
    assert os.sched_getaffinity(0) == before


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "scan-topk",
         "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    # Ten pairs, every one won by a margin wider than the parent's spread.
    ([100.0 + i for i in range(10)], [80.0 + i for i in range(10)],
     "lower", "better"),
    ([100.0 + i for i in range(10)], [120.0 + i for i in range(10)],
     "higher", "better"),
    # Tight runs, median 20% worse than the parent with a 10% bound.
    ([100.0, 101.0, 100.5], [120.0, 121.0, 120.5], "lower", "worse"),
    # Within the bound and without a claimable gain.
    ([100.0, 101.0, 100.5], [101.0, 100.0, 102.0], "lower", "same"),
    # A clear gain on too few pairs is not claimed.
    ([100.0, 101.0, 100.5], [80.0, 81.0, 80.5], "lower", "same"),
    # Spread far wider than the bound.
    ([50.0, 100.0, 150.0, 80.0], [60.0, 140.0, 90.0, 120.0], "lower",
     "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, 0.10) == expected


def test_compare_leaves_out_runs_whose_generator_fell_behind(tmp_path):
    for i, (valid, latency) in enumerate([(True, 5.0), (False, 50.0)]):
        (tmp_path / f"run-{i}.json").write_text(json.dumps({
            "bench": {"comparable": True},
            "workloads": {"serve-remote": {
                "metrics": {"latency_p50_ms": {"value": latency,
                                               "unit": "ms"}},
                "diagnostics": {"valid": valid},
            }},
        }))
    values, skipped = load([str(tmp_path / "run-*.json")])
    assert values == {("serve-remote", "latency_p50_ms"): [5.0]}
    assert skipped == [f"{tmp_path / 'run-1.json'}: serve-remote"]
