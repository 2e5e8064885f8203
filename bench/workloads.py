"""The four workloads: sizes, seeded inputs, oracle checks, metrics.

Everything here runs in the orchestrating process.  Inputs are derived
from ``--seed`` with numpy (plus the corpus generators of
``repro.datasets.synthetic`` where the workload is defined by them); the
exact answers come from :mod:`bench.oracle`, which never calls the code
under test's search path.  The in-process workloads run in a fresh
child (:mod:`bench.child`); ``serve-remote`` lives in
:mod:`bench.remote`.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench import oracle, probe

#: Fresh instances per untraced run, one after another.  Each is set up
#: and measured for this share of the run; ``setup_s`` is the median
#: set-up and the timings pool the samples of all.  Measuring several
#: instances averages over what differs between them, such as the
#: program's autotune decisions.
SETUP_REPEATS = 5
#: Closed-loop warm-up before each measured phase (caches, lazy state).
WARMUP_S = 0.5
#: Per-request deadline of the in-process services: generous, so a
#: scheduler hiccup on a shared machine is not a failure.
DEADLINE_S = 2.0
#: ``make_isolet_like``'s seed inside ``standard_suite``; the run seed
#: is added to it as the dataset offset.
ISOLET_SEED = 1
#: Storable levels of the default (2-bit) design point.
LEVELS = 4
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

WORKLOADS = ("serve-remote", "scan-topk", "ann-probe", "hdc-refresh")

#: Sizes of a comparable run.  See README.md for why each was chosen.
PARAMS: Dict[str, Dict] = {
    "serve-remote": {
        "rows": 1024, "stages": 128, "shards": 2, "pool": 1024, "k": 5,
        "topk_share": 0.75, "rate": 300.0, "outstanding": 32,
        "deadline": 1.0, "max_in_flight": 16, "warmup_s": 0.5,
        "redraw": 0.3,
    },
    "scan-topk": {
        "rows": 8192, "stages": 128, "batch": 32, "pool": 512, "k": 10,
        "redraw": 0.3,
    },
    "ann-probe": {
        "rows": 100_000, "stages": 64, "clusters": 128, "sample": 8192,
        "noise": 0.35, "batch": 16, "pool": 256, "exact_queries": 16,
        "k": 10, "nprobe": 8, "min_recall": 0.8,
    },
    "hdc-refresh": {
        "dimension": 2048, "bits": 2, "batch": 32, "swap_every": 4,
        "epochs": [1, 3], "n_train": 1560, "n_test": 780,
        "min_accuracy": 0.5,
    },
}

#: ``--quick`` sizes, for the benchmark's own tests only.
QUICK_PARAMS: Dict[str, Dict] = {
    "serve-remote": dict(PARAMS["serve-remote"], rows=256, pool=128,
                         rate=200.0, warmup_s=0.2),
    "scan-topk": dict(PARAMS["scan-topk"], rows=1024, pool=64),
    "ann-probe": dict(PARAMS["ann-probe"], rows=20_000, clusters=32,
                      sample=4096, pool=64, min_recall=0.5),
    "hdc-refresh": dict(PARAMS["hdc-refresh"], dimension=512, n_train=390,
                        n_test=100, min_accuracy=0.06),
}


def params_for(name: str, quick: bool) -> Dict:
    """The sizes of one workload."""
    return dict((QUICK_PARAMS if quick else PARAMS)[name])


def redraw(rows: np.ndarray, share: float, rng) -> np.ndarray:
    """Queries from stored rows: each stage re-drawn with ``share``."""
    out = np.array(rows, dtype=np.uint8, copy=True)
    mask = rng.random(out.shape) < share
    out[mask] = rng.integers(0, LEVELS, int(mask.sum()), dtype=np.uint8)
    return out


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (VmHWM), in MiB.

    Not ``ru_maxrss``: that one carries over the parent's peak through
    fork and exec, so a child would report the orchestrator's memory.
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def recall(got: np.ndarray, want: np.ndarray) -> float:
    """Share of the oracle's rows (``want``, one row per query) that the
    answers (``got``, the same shape) hold."""
    hits = sum(
        len(set(g) & set(w)) for g, w in zip(got.tolist(), want.tolist())
    )
    return hits / float(want.size)


def percentile_ms(values, q: float) -> float:
    """``q``-th percentile of seconds, in ms (failures count as inf)."""
    if len(values) == 0:
        return float("inf")
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(root: Path, workdir: Path, tag: str) -> Dict[str, str]:
    """A hermetic environment: no ``REPRO_*`` overrides, a fresh empty
    autotune profile, temp files inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    profile = workdir / f"autotune-{tag}.json"
    profile.write_text("")
    env["REPRO_AUTOTUNE_PROFILE"] = str(profile)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["TMPDIR"] = str(workdir)
    env["PYTHONHASHSEED"] = "0"
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def run_child(
    root: Path, workdir: Path, tag: str, pin: Optional[Callable[[], None]]
) -> Tuple[float, Dict, List]:
    """Run one :mod:`bench.child` (started with ``preexec_fn=pin``),
    probing the machine's speed meanwhile; returns (spawn time, its
    result, the ``[time, probe]`` pairs)."""
    log = workdir / f"child-{tag}.log"
    probes: List[List[float]] = [[time.monotonic(), probe.probe()]]
    with open(log, "w") as handle:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", str(workdir), tag],
            cwd=root, env=child_env(root, workdir, tag),
            stdout=handle, stderr=subprocess.STDOUT,
            preexec_fn=pin,
        )
        while True:
            try:
                code = proc.wait(timeout=probe.EVERY_S)
                break
            except subprocess.TimeoutExpired:
                pass
            now = time.monotonic()
            if now - t_spawn > CHILD_TIMEOUT_S:
                stop_process(proc, timeout=5.0)
                raise RuntimeError(f"child {tag} timed out; see {log}")
            probes.append([now, probe.probe()])
    if code != 0:
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"child {tag} exited {code}:\n{tail}")
    result = json.loads((workdir / f"result-{tag}.json").read_text())
    return t_spawn, result, probes


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def prepare(name: str, seed: int, p: Dict) -> Tuple[Dict, Dict]:
    """Seeded inputs for the child and the oracle's expectations."""
    if name == "scan-topk":
        rng = np.random.default_rng([seed, 2])
        stored = rng.integers(
            0, LEVELS, (p["rows"], p["stages"]), dtype=np.uint8
        )
        src = rng.integers(0, p["rows"], p["pool"])
        queries = redraw(stored[src], p["redraw"], rng)
        expected = oracle.exact_top_k(stored, queries, p["k"])
        return {"stored": stored, "queries": queries}, {"top_k": expected}
    if name == "ann-probe":
        from repro.datasets.synthetic import (
            make_clustered_levels,
            perturb_levels,
        )

        corpus, _, _ = make_clustered_levels(
            p["rows"], p["stages"], LEVELS, p["clusters"],
            noise=p["noise"], seed=seed,
        )
        rng = np.random.default_rng([seed, 3])
        src = np.sort(rng.choice(p["rows"], p["pool"], replace=False))
        queries = perturb_levels(
            corpus[src], LEVELS, noise=p["noise"], seed=seed + 1
        )
        expected = oracle.exact_top_k(corpus, queries, p["k"])
        return {"corpus": corpus, "queries": queries}, {"top_k": expected}
    if name == "hdc-refresh":
        # The dataset and model are built in the child; the oracle ranks
        # the query levels the child's pipeline produced.
        return {"seed": np.asarray(seed)}, {}
    raise ValueError(f"unknown in-process workload {name!r}")


def _hdc_oracle(arrays: Dict[str, np.ndarray], n_models: int) -> List[np.ndarray]:
    return [
        oracle.exact_top_k(arrays[f"model_{m}"], arrays[f"levels_{m}"], 1)[:, 0]
        for m in range(n_models)
    ]


def check(
    name: str,
    p: Dict,
    expected: Dict,
    result: Dict,
    arrays: Dict[str, np.ndarray],
) -> Tuple[List[str], Dict]:
    """Compare every answer one child recorded with the oracle.

    Returns the list of wrong answers (each naming the workload and the
    query) and the workload's quality diagnostics.
    """
    errors: List[str] = []
    diagnostics: Dict = {}
    batch = p["batch"]
    if name == "scan-topk":
        def want(b: int, variant: int) -> np.ndarray:
            return expected["top_k"][b * batch:(b + 1) * batch]
    elif name == "ann-probe":
        truth = expected["top_k"]
        probed = arrays["probed"]
        exact = arrays["exact"]
        n_exact = p["exact_queries"]
        for i in np.flatnonzero((exact != truth[:n_exact]).any(axis=1)):
            errors.append(
                f"ann-probe: query {i} at full nprobe returned "
                f"{exact[i].tolist()}, oracle {truth[i].tolist()}"
            )
        diagnostics["recall_at_10"] = recall(probed, truth)
        diagnostics["shards_mapped"] = int(arrays["shards_mapped"])
        if diagnostics["recall_at_10"] < p["min_recall"]:
            errors.append(
                f"ann-probe: recall@{p['k']} "
                f"{diagnostics['recall_at_10']:.4f} at nprobe="
                f"{p['nprobe']} is below {p['min_recall']}"
            )

        # Measured answers must repeat the verification pass exactly.
        def want(b: int, variant: int) -> np.ndarray:
            return probed[b * batch:(b + 1) * batch]
    elif name == "hdc-refresh":
        n_models = len(p["epochs"])
        truth = _hdc_oracle(arrays, n_models)
        labels = arrays["labels"]
        for m in range(n_models):
            best = arrays[f"best_{m}"]
            for i in np.flatnonzero(best != truth[m]):
                errors.append(
                    f"hdc-refresh: model {m} sample {i} returned row "
                    f"{best[i]}, oracle {truth[m][i]}"
                )
            diagnostics[f"accuracy_model{m}"] = float(
                (best == labels).mean()
            )
        diagnostics["accuracy"] = float(np.mean([
            diagnostics[f"accuracy_model{m}"] for m in range(n_models)
        ]))
        # The oracle checks the search, not the encoder; a broken encoder
        # shows as accuracy near chance (1/26).
        if diagnostics["accuracy"] < p["min_accuracy"]:
            errors.append(
                f"hdc-refresh: accuracy {diagnostics['accuracy']:.4f} is "
                f"below {p['min_accuracy']}"
            )
        diagnostics["modeled_latency_ns"] = float(
            arrays["modeled_latency_ns"]
        )
        diagnostics["modeled_energy_nj"] = float(
            arrays["modeled_energy_nj"]
        )

        def want(b: int, variant: int) -> np.ndarray:
            return truth[variant][b * batch:(b + 1) * batch]
    else:
        raise ValueError(f"unknown in-process workload {name!r}")

    first = arrays["first"]
    expect = want(0, 0).reshape(first.shape)
    if not np.array_equal(first, expect):
        errors.append(
            f"{name}: set-up answer {first.tolist()} != {expect.tolist()}"
        )
    answers = arrays["answers"]
    offset = 0
    for b, variant, n in result["phase"]["positions"]:
        got = answers[offset:offset + n]
        expect = want(b, variant).reshape(got.shape)
        for j in np.flatnonzero((got != expect).reshape(n, -1).any(axis=1)):
            errors.append(
                f"{name}: query {b * batch + j} (model {variant}) returned "
                f"{got[j].tolist()}, oracle {expect[j].tolist()}"
            )
        offset += n
    return errors, diagnostics


def run_in_process(
    name: str,
    root: Path,
    workdir: Path,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    repeats: int,
    pin: Optional[Callable[[], None]],
) -> Dict:
    """Set up ``repeats`` children one after another; each measures for
    ``seconds / repeats`` and the samples of all are pooled.  ``pin``
    is the children's ``preexec_fn`` (see :func:`bench.probe.isolation`).
    """
    p = params_for(name, quick)
    inputs, expected = prepare(name, seed, p)
    np.savez(workdir / "inputs.npz", **inputs)
    spec = {
        "workload": name, "seed": seed, "seconds": seconds / repeats,
        "warmup_s": WARMUP_S, "params": p, "trace": trace,
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    setups: List[float] = []
    wall_setups: List[float] = []
    results: List[Dict] = []
    errors: List[str] = []
    for rep in range(repeats):
        tag = str(rep)
        t_spawn, result, setup_probes = run_child(root, workdir, tag, pin)
        times, secs = np.asarray(setup_probes, dtype=float).reshape(-1, 2).T
        setups.append(
            probe.scaled_span(times, secs, t_spawn, result["t_first"])
        )
        wall_setups.append(result["t_first"] - t_spawn)
        with np.load(workdir / f"answers-{tag}.npz") as data:
            arrays = {k: data[k] for k in data.files}
        child_errors, diagnostics = check(name, p, expected, result, arrays)
        errors.extend(child_errors)
        results.append(result)
    phases = [r["phase"] for r in results]
    ends, busy, latencies, good = np.asarray(
        [s for ph in phases for s in ph["samples"]], dtype=float
    ).reshape(-1, 4).T
    probe_t, probe_s = np.asarray(
        [pr for ph in phases for pr in ph["probes"]], dtype=float
    ).reshape(-1, 2).T
    speed = probe.scale(probe_t, probe_s, ends - busy / 2.0)
    scaled = latencies * speed
    wall_s = sum(ph["samples"][-1][0] - ph["t0"] for ph in phases)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_qps": (good.sum() / (busy * speed).sum(), "queries/s"),
        "latency_p50_ms": (percentile_ms(scaled, 50), "ms"),
        "latency_p90_ms": (percentile_ms(scaled, 90), "ms"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in results), "MiB"
        ),
    }
    # Quality diagnostics are those of the last child (every child's
    # answers were checked).
    diagnostics.update({
        "latency_p99_ms": percentile_ms(scaled, 99),
        "latency_samples": len(latencies),
        "wall_setup_s": statistics.median(wall_setups),
        "wall_throughput_qps": good.sum() / wall_s,
        "wall_latency_p50_ms": percentile_ms(latencies, 50),
        "wall_latency_p90_ms": percentile_ms(latencies, 90),
        "machine_speed": float(np.median(speed)),
        "setup_samples_s": setups,
        "autotune": [r["autotune"] for r in results],
        "chunks": [r["chunks"] for r in results],
    })
    extra = {"shards_mapped": diagnostics.get("shards_mapped", 0)}
    return {
        "errors": errors,
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": metrics,
        "diagnostics": diagnostics,
        # Traced runs have one child.
        "ledger": results[-1].get("ledger"),
        "ledger_extra": extra,
    }
