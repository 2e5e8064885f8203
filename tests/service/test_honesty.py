"""One honesty property over every backend and both operations.

Whatever a backend serves -- from a faulted replica, with a partition
down, from a partial index probe -- each per-query answer must pass
``check_honesty()``, cross the wire codec with every field but the
in-process ``result`` intact, and, when it claims to be exact
(``degraded=False, approximate=False``), equal a plain-numpy oracle
ranking stored rows by ``count * M + row``: mismatch count first, row
id breaking ties.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDAMConfig
from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.pipeline import build_pipeline
from repro.index import ClusteredTDAMIndex, IndexSearchService
from repro.net.wire import decode_response, encode_response
from repro.resilience.resilient import ResilientTDAMArray
from repro.service import (
    EncodeSearchService,
    FakeClock,
    PartitionedTDAMService,
    ServiceResponse,
    ShardTimeoutError,
    TDAMSearchService,
)
from repro.service.stack import build_shards

N_ROWS = 12
N_FEATURES = 9
LEVELS = TDAMConfig().levels
BACKENDS = (
    "replicated", "partitioned", "index_partial", "index_full", "encode",
)


class _Backend:
    """A service plus what the oracle needs to rank its corpus."""

    def __init__(self, service, stored, levels_of=None):
        self.service = service
        self.stored = stored
        self.levels_of = levels_of or (lambda queries: queries)


def _replicated(config, stored, clock):
    # Shard 0 has more dead rows than spares: after self-test it serves
    # with retired rows (degraded); shard 1 is clean (exact).  No health
    # checks, so round-robin keeps serving from both.
    shards = build_shards(
        config, N_ROWS, n_shards=2, n_spares=2,
        fault_counts=[(2, 2, 4), (0, 0, 0)], seed=7,
    )
    service = TDAMSearchService(
        shards, clock=clock.now, sleep=clock.sleep,
        health_check_interval=None,
    )
    service.write_all(stored)
    for shard in shards:
        shard.self_test_and_repair()
    return service


def _partitioned(config, stored, clock):
    parts = [
        TDAMSearchService(
            [ResilientTDAMArray(config, n_rows=4, n_spares=1)],
            clock=clock.now, sleep=clock.sleep,
        )
        for _ in range(3)
    ]

    def down(shard_id, queries):
        raise ShardTimeoutError(f"{shard_id} is down")

    parts[1].add_interceptor(down)
    service = PartitionedTDAMService(parts, clock=clock.now)
    service.write_all(stored)
    return service


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    config = TDAMConfig(n_stages=16)
    clock = FakeClock()
    stored = np.random.default_rng(3).integers(
        0, LEVELS, size=(N_ROWS, config.n_stages)
    )
    index = ClusteredTDAMIndex.build(
        tmp_path_factory.mktemp("honesty") / "idx", stored, config,
        n_clusters=3, seed=3,
    )

    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, N_FEATURES)).astype(np.float32)
    encoder = RandomProjectionEncoder(N_FEATURES, 32, seed=2)
    classifier = HDCClassifier(encoder, 4).fit(
        x, rng.integers(0, 4, size=60), epochs=2
    )
    pipeline = build_pipeline(classifier, bits=2)
    levels_service = TDAMSearchService(
        [ResilientTDAMArray(TDAMConfig(n_stages=32), n_rows=4)]
    )
    levels_service.write_all(pipeline.model.levels)

    return {
        "replicated": _Backend(_replicated(config, stored, clock), stored),
        "partitioned": _Backend(_partitioned(config, stored, clock), stored),
        "index_partial": _Backend(
            IndexSearchService(index, default_deadline_s=30.0, nprobe=1),
            stored,
        ),
        "index_full": _Backend(
            IndexSearchService(
                index, default_deadline_s=30.0, nprobe=index.n_clusters
            ),
            stored,
        ),
        "encode": _Backend(
            EncodeSearchService(levels_service, pipeline),
            pipeline.model.levels,
            pipeline.query_levels,
        ),
    }


def _oracle(stored, levels):
    """Rows ranked by ``count * M + row``, and their mismatch counts."""
    counts = (levels[:, None, :] != stored[None, :, :]).sum(axis=2)
    m = stored.shape[0]
    order = np.argsort(counts * m + np.arange(m), axis=1)
    return order, np.take_along_axis(counts, order, axis=1)


def _over_the_wire(kind, response):
    payload = json.loads(json.dumps(encode_response(kind, response)))
    return decode_response(kind, payload)


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    op=st.sampled_from(["search_batch", "top_k"]),
    n_queries=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
)
def test_every_answer_is_honest(backends, backend, op, n_queries, k, seed):
    b = backends[backend]
    rng = np.random.default_rng(seed)
    if backend == "encode":
        queries = rng.normal(size=(n_queries, N_FEATURES)).astype(np.float32)
    else:
        queries = rng.integers(
            0, LEVELS, size=(n_queries, b.stored.shape[1])
        )
    if op == "search_batch":
        kind, answers = "search", b.service.search_batch(queries)
    else:
        batched = b.service.top_k(queries, k)
        batched.check_honesty()
        kind = "topk"
        answers = [batched.for_query(i) for i in range(n_queries)]
    assert len(answers) == n_queries
    order, counts = _oracle(b.stored, b.levels_of(queries))

    for i, answer in enumerate(answers):
        answer.check_honesty()
        decoded = _over_the_wire(kind, answer)
        for field in ServiceResponse.__dataclass_fields__:
            if field == "result":
                continue
            want, got = getattr(answer, field), getattr(decoded, field)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field
            else:
                assert got == want, field
        if answer.degraded or answer.approximate:
            continue
        if kind == "search":
            assert answer.best_row == order[i, 0]
            assert answer.best_distance == counts[i, 0]
        else:
            assert np.array_equal(answer.rows, order[i, :k])
            if answer.distances is not None:
                assert np.array_equal(answer.distances, counts[i, :k])


def test_every_backend_shape_is_exercised(backends):
    # The property above is only as strong as its backends: the faulted
    # replica must serve both flags, the partitioned service must
    # report its skip, and the partial index must say approximate.
    queries = np.random.default_rng(0).integers(0, LEVELS, size=(2, 16))
    replicated = backends["replicated"].service
    flags = {replicated.search_batch(queries)[0].degraded for _ in range(2)}
    assert flags == {True, False}
    skipped = backends["partitioned"].service.top_k(queries, 2)
    assert skipped.degraded and skipped.partitions_skipped == ("part1",)
    partial = backends["index_partial"].service.top_k(queries, 2)
    assert partial.approximate and not partial.degraded
