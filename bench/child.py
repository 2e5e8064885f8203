"""One in-process workload, run in a fresh process.

Usage: ``python -m bench.child WORKDIR TAG``.  The orchestrator writes
``WORKDIR/spec.json`` and the workload's inputs; this process sets the
workload up, answers one request (the end of set-up), runs the measured
closed loop for ``spec["seconds"]`` and a fixed verification pass.
Everything it saw goes to ``WORKDIR/result-TAG.json`` and
``WORKDIR/answers-TAG.npz``; the orchestrator checks the answers.  Typed service failures are
counted, never hidden; anything else crashes the process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from bench import probe
from bench import workloads as W

#: Deadline of the first request: it pays for autotuning.
FIRST_DEADLINE_S = 60.0


class _Workload:
    """Cycles over ``n_items`` requests in batches of ``batch``."""

    batch = 1
    n_items = 1

    @property
    def n_pool(self) -> int:
        return -(-self.n_items // self.batch)

    def size(self, b: int) -> int:
        return min(self.batch, self.n_items - b * self.batch)


class ScanTopK(_Workload):
    """``TDAMSearchService.top_k`` over one resilient array."""

    def __init__(self, spec: Dict, inputs) -> None:
        from repro.core.config import TDAMConfig
        from repro.resilience.resilient import ResilientTDAMArray
        from repro.service.server import TDAMSearchService

        p = spec["params"]
        self.k = p["k"]
        self.batch = p["batch"]
        self.queries = inputs["queries"]
        stored = inputs["stored"]
        array = ResilientTDAMArray(
            TDAMConfig(n_stages=stored.shape[1]), stored.shape[0]
        )
        self.service = TDAMSearchService(
            [array], default_deadline_s=W.DEADLINE_S
        )
        self.service.write_all(stored)
        self.n_items = self.queries.shape[0]

    def first(self) -> np.ndarray:
        return self.service.top_k(
            self.queries[:self.batch], self.k, deadline_s=FIRST_DEADLINE_S
        ).rows

    def step(self, i: int):
        b = i % self.n_pool
        response = self.service.top_k(
            self.queries[b * self.batch:(b + 1) * self.batch], self.k
        )
        return b, 0, response.rows, response.degraded

    def verify(self) -> Dict[str, np.ndarray]:
        return {}


class AnnProbe(_Workload):
    """``ClusteredTDAMIndex.top_k`` at a fixed ``nprobe``."""

    def __init__(self, spec: Dict, inputs, workdir: Path) -> None:
        from repro.core.config import TDAMConfig
        from repro.index.cluster_index import ClusteredTDAMIndex

        p = spec["params"]
        self.p = p
        self.queries = inputs["queries"]
        corpus = inputs["corpus"]
        self.index = ClusteredTDAMIndex.build(
            workdir / f"store-{spec['tag']}",
            corpus,
            TDAMConfig(n_stages=corpus.shape[1]),
            n_clusters=p["clusters"],
            nprobe=p["nprobe"],
            seed=spec["seed"],
            sample_size=p["sample"],
        )
        self.batch = p["batch"]
        self.n_items = self.queries.shape[0]

    def _top_k(self, b: int, nprobe: int) -> np.ndarray:
        return self.index.top_k(
            self.queries[b * self.batch:(b + 1) * self.batch], self.p["k"],
            nprobe=nprobe,
        ).rows

    def first(self) -> np.ndarray:
        return self._top_k(0, self.p["nprobe"])

    def step(self, i: int):
        b = i % self.n_pool
        rows = self._top_k(b, self.p["nprobe"])
        return b, 0, rows, bool((rows < 0).any())

    def verify(self) -> Dict[str, np.ndarray]:
        probed = np.concatenate(
            [self._top_k(b, self.p["nprobe"]) for b in range(self.n_pool)]
        )
        exact = self.index.top_k(
            self.queries[:self.p["exact_queries"]], self.p["k"],
            nprobe=self.index.n_clusters,
        ).rows
        return {
            "probed": probed,
            "exact": exact,
            "shards_mapped": np.asarray(self.index.store.n_mapped_shards),
        }


class HdcRefresh(_Workload):
    """HDC classification through ``EncodeSearchService`` while the
    stored model is rewritten every few batches."""

    def __init__(self, spec: Dict, inputs) -> None:
        from repro.core.config import TDAMConfig
        from repro.datasets.synthetic import make_isolet_like
        from repro.hdc.encoder import RandomProjectionEncoder
        from repro.hdc.model import HDCClassifier
        from repro.hdc.pipeline import build_pipeline
        from repro.resilience.resilient import ResilientTDAMArray
        from repro.service.encode import EncodeSearchService
        from repro.service.server import TDAMSearchService

        p = spec["params"]
        self.p = p
        seed = spec["seed"]
        ds = make_isolet_like(
            p["n_train"], p["n_test"], seed=W.ISOLET_SEED + seed
        )
        self.features = ds.x_test
        self.labels = ds.y_test
        encoder = RandomProjectionEncoder(
            ds.n_features, p["dimension"], seed=seed
        )
        config = TDAMConfig(
            bits=p["bits"], n_stages=p["dimension"], vdd=0.6
        )
        self.pipelines = []
        # Each model trains on its own share of the training set: with
        # all of it, every epoch count lands on the same quantized levels.
        n_models = len(p["epochs"])
        for m, epochs in enumerate(p["epochs"]):
            clf = HDCClassifier(encoder, ds.n_classes).fit(
                ds.x_train[m::n_models], ds.y_train[m::n_models],
                epochs=epochs,
            )
            self.pipelines.append(build_pipeline(
                clf, bits=p["bits"], fabric=True, config=config
            ))
        array = ResilientTDAMArray(config, ds.n_classes)
        self.service = TDAMSearchService(
            [array], default_deadline_s=W.DEADLINE_S
        )
        self.service.write_all(self.pipelines[0].model.levels)
        self.endpoints = [
            EncodeSearchService(self.service, pipe)
            for pipe in self.pipelines
        ]
        self.batch = p["batch"]
        self.n_items = self.features.shape[0]
        self.model = 0

    def _features(self, b: int) -> np.ndarray:
        return self.features[b * self.batch:(b + 1) * self.batch]

    def first(self) -> np.ndarray:
        responses = self.endpoints[0].search_batch(
            self._features(0), deadline_s=FIRST_DEADLINE_S
        )
        return np.asarray([r.best_row for r in responses])

    def before(self, i: int) -> None:
        model = (i // self.p["swap_every"]) % len(self.pipelines)
        if model != self.model:
            self.service.write_all(self.pipelines[model].model.levels)
            self.model = model

    def step(self, i: int):
        b = i % self.n_pool
        responses = self.endpoints[self.model].search_batch(self._features(b))
        rows = np.asarray([r.best_row for r in responses])
        return b, self.model, rows, any(r.degraded for r in responses)

    def verify(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {"labels": self.labels}
        modeled_s: List[float] = []
        modeled_j: List[float] = []
        for m, pipe in enumerate(self.pipelines):
            self.service.write_all(pipe.model.levels)
            self.model = m
            best = []
            for b in range(self.n_pool):
                responses = self.endpoints[m].search_batch(self._features(b))
                best.extend(r.best_row for r in responses)
                modeled_s.extend(r.result.latency_s for r in responses)
                modeled_j.extend(r.result.energy_j for r in responses)
            out[f"best_{m}"] = np.asarray(best)
            out[f"levels_{m}"] = pipe.query_levels(self.features)
            out[f"model_{m}"] = pipe.model.levels
        cost = self.pipelines[0].encode_cost(1)
        out["modeled_latency_ns"] = np.asarray(
            (cost.latency_s + float(np.mean(modeled_s))) * 1e9
        )
        out["modeled_energy_nj"] = np.asarray(
            (cost.energy_j + float(np.mean(modeled_j))) * 1e9
        )
        return out


def _measure(workload, seconds: float, warmup_s: float, tracer=None):
    """Closed loop: one batch call after another for ``seconds``.

    Records one ``[end time, busy, latency, answered queries]`` sample
    per batch.  Busy time also covers the workload's ``before`` step (the
    refresh writes); latency is the batch call alone.  Between batches a
    :func:`bench.probe.probe` is taken every ``probe.EVERY_S``, outside
    both.
    """
    from repro.service.errors import ServiceError

    before = getattr(workload, "before", None)
    # The clock every process of the run shares, so that the samples of
    # several children can be pooled with their probes.
    now = time.monotonic

    def run(duration: float, record: bool):
        samples: List[List[float]] = []
        probes: List[List[float]] = []
        answers: List[np.ndarray] = []
        positions: List[List[int]] = []
        attempted = failed = 0
        i = 0
        t0 = last_probe = now()
        end = t0 + duration
        while True:
            a = now()
            if before is not None:
                before(i)
            b_start = now()
            try:
                b, variant, rows, degraded = workload.step(i)
            except ServiceError as exc:
                rows, degraded = None, True
                b, variant = i % workload.n_pool, -1
                sys.stderr.write(f"batch {i} failed: {exc!r}\n")
            t = now()
            if record:
                n = workload.size(b)
                attempted += n
                # A failed batch misses every latency limit.
                samples.append([t, t - a, float("inf") if degraded
                                else t - b_start, 0 if degraded else n])
                if degraded:
                    failed += n
                else:
                    answers.append(np.asarray(rows).reshape(n, -1))
                    positions.append([b, variant, n])
            i += 1
            if t >= end:
                break
            if t - last_probe >= probe.EVERY_S:
                probes.append([t, probe.probe()])
                last_probe = t
        return t0, samples, probes, answers, positions, attempted, failed

    run(warmup_s, record=False)
    if tracer is not None:
        with tracer.root():
            t0, *rest = run(seconds, record=True)
    else:
        t0, *rest = run(seconds, record=True)
    samples, probes, answers, positions, attempted, failed = rest
    return {
        "t0": t0,
        "samples": samples,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "positions": positions,
    }, answers


def main(argv: List[str]) -> int:
    workdir, tag = Path(argv[0]), argv[1]
    spec = json.loads((workdir / "spec.json").read_text())
    spec["tag"] = tag
    inputs = np.load(workdir / "inputs.npz")
    name = spec["workload"]
    if name == "scan-topk":
        workload = ScanTopK(spec, inputs)
    elif name == "ann-probe":
        workload = AnnProbe(spec, inputs, workdir)
    elif name == "hdc-refresh":
        workload = HdcRefresh(spec, inputs)
    else:
        raise SystemExit(f"unknown in-process workload {name!r}")
    first = workload.first()
    result: Dict = {"t_first": time.monotonic()}
    arrays: Dict[str, np.ndarray] = {"first": np.asarray(first)}
    tracer = None
    if spec["trace"]:
        from bench.ledger import Tracer

        tracer = Tracer().install()
    phase, answers = _measure(
        workload, spec["seconds"], spec["warmup_s"], tracer
    )
    result["phase"] = phase
    result["peak_rss_mb"] = W.peak_rss_mb(os.getpid())
    if tracer is not None:
        result["ledger"] = tracer.dump()
        tracer.uninstall()
    arrays["answers"] = (
        np.concatenate(answers) if answers
        else np.empty((0, 1), dtype=np.int64)
    )
    arrays.update(workload.verify())
    from repro.core.kernels import autotune_decisions, chunk_decisions

    result["autotune"] = {repr(k): v for k, v in autotune_decisions().items()}
    result["chunks"] = {repr(k): v for k, v in chunk_decisions().items()}
    np.savez(workdir / f"answers-{tag}.npz", **arrays)
    (workdir / f"result-{tag}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
