"""Tests of the encode-then-search serving endpoint."""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.pipeline import build_pipeline
from repro.resilience.resilient import ResilientTDAMArray
from repro.service import EncodeSearchService, TDAMSearchService
from repro.service.errors import InvalidRequestError

N_FEATURES = 9
DIMENSION = 32
N_CLASSES = 4


@pytest.fixture(scope="module")
def pipelines():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, N_FEATURES)).astype(np.float32)
    y = rng.integers(0, N_CLASSES, size=80)
    enc = RandomProjectionEncoder(N_FEATURES, DIMENSION, seed=2)
    clf = HDCClassifier(enc, N_CLASSES).fit(x, y, epochs=2)
    return (
        build_pipeline(clf, bits=2),
        build_pipeline(clf, bits=2, fabric=True),
        x,
    )


@pytest.fixture(scope="module")
def wide_pipelines():
    # ISOLET-wide (617 features): wide enough for finite float32
    # features to overflow the projection.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 617)).astype(np.float32)
    enc = RandomProjectionEncoder(617, DIMENSION, seed=4)
    clf = HDCClassifier(enc, N_CLASSES).fit(
        x, rng.integers(0, N_CLASSES, size=80), epochs=1
    )
    return {
        False: build_pipeline(clf, bits=2),
        True: build_pipeline(clf, bits=2, fabric=True),
    }, x


@pytest.fixture
def endpoint(pipelines):
    float_pipe, fabric_pipe, _ = pipelines
    config = TDAMConfig(bits=2, n_stages=DIMENSION, vdd=0.6)
    shard = ResilientTDAMArray(config, n_rows=N_CLASSES)
    service = TDAMSearchService([shard])
    service.write_all(float_pipe.model.levels)
    return EncodeSearchService(service, fabric_pipe)


class TestEncodeSearchService:
    def test_search_single_feature_vector(self, endpoint, pipelines):
        _, fabric_pipe, x = pipelines
        response = endpoint.search(x[0])
        assert response.outcome == "ok"
        expected = int(
            np.argmin(
                np.sum(
                    fabric_pipe.model.levels
                    != fabric_pipe.query_levels(x[0]),
                    axis=1,
                )
            )
        )
        assert response.best_row == expected

    def test_search_batch_matches_level_service(self, endpoint, pipelines):
        _, fabric_pipe, x = pipelines
        responses = endpoint.search_batch(x[:6])
        direct = endpoint.service.search_batch(
            fabric_pipe.query_levels(x[:6])
        )
        assert [r.best_row for r in responses] == [
            r.best_row for r in direct
        ]

    def test_top_k(self, endpoint, pipelines):
        _, _, x = pipelines
        response = endpoint.top_k(x[:5], k=2)
        assert response.rows.shape == (5, 2)
        assert response.outcome == "ok"

    def test_rejects_wrong_feature_count(self, endpoint):
        with pytest.raises(InvalidRequestError, match="features"):
            endpoint.search(np.zeros(N_FEATURES + 1))

    def test_rejects_non_finite(self, endpoint):
        bad = np.zeros(N_FEATURES)
        bad[3] = np.inf
        with pytest.raises(InvalidRequestError, match="NaN/Inf"):
            endpoint.search(bad)

    @pytest.mark.parametrize("fabric,scale", [(True, 1e36), (False, 3e38)])
    @pytest.mark.parametrize("call", ["search", "search_batch", "top_k"])
    def test_rejects_non_finite_encoding(
        self, wide_pipelines, monkeypatch, fabric, scale, call
    ):
        # Finite float32 features this large overflow the projection:
        # the fabric encoder's dequantized product at 1e36, the float
        # encoder's GEMM at 3e38.  The hypervector comes out NaN and no
        # level is meaningful for it.
        pipes, x = wide_pipelines
        pipe = pipes[fabric]
        rows = x[:2] / np.abs(x[:2]).max() * np.float32(scale)
        assert np.isfinite(rows).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(pipe.encode(rows)).all()
        config = TDAMConfig(bits=2, n_stages=DIMENSION, vdd=0.6)
        service = TDAMSearchService(
            [ResilientTDAMArray(config, n_rows=N_CLASSES)]
        )
        service.write_all(pipe.model.levels)
        endpoint = EncodeSearchService(service, pipe)

        def no_shard_work(*args, **kwargs):
            raise AssertionError("search reached the level service")

        for name in ("search", "search_batch", "top_k"):
            monkeypatch.setattr(service, name, no_shard_work)
        args = {"search": (rows[0],), "search_batch": (rows,),
                "top_k": (rows, 2)}[call]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidRequestError, match="not finite"):
                getattr(endpoint, call)(*args)

    def test_rejects_batch_through_search(self, endpoint):
        with pytest.raises(InvalidRequestError, match="search_batch"):
            endpoint.search(np.zeros((2, N_FEATURES)))

    def test_rejects_empty_batch(self, endpoint):
        with pytest.raises(InvalidRequestError, match="empty"):
            endpoint.search_batch(np.zeros((0, N_FEATURES)))

    def test_rejects_non_numeric(self, endpoint):
        with pytest.raises(InvalidRequestError):
            endpoint.search(["a"] * N_FEATURES)

    def test_fabric_encode_cost_reported(self, endpoint):
        cost = endpoint.encode_cost(3)
        assert endpoint.in_fabric
        assert cost.latency_s > 0 and cost.energy_j > 0

    def test_float_pipeline_has_no_cost(self, pipelines):
        float_pipe, _, _ = pipelines
        config = TDAMConfig(bits=2, n_stages=DIMENSION, vdd=0.6)
        shard = ResilientTDAMArray(config, n_rows=N_CLASSES)
        service = TDAMSearchService([shard])
        service.write_all(float_pipe.model.levels)
        endpoint = EncodeSearchService(service, float_pipe)
        assert not endpoint.in_fabric
        assert endpoint.encode_cost() is None

    def test_geometry_mismatch_rejected_at_construction(self, pipelines):
        float_pipe, _, _ = pipelines
        config = TDAMConfig(bits=2, n_stages=16)
        shard = ResilientTDAMArray(config, n_rows=N_CLASSES)
        service = TDAMSearchService([shard])
        with pytest.raises(ValueError, match="row width"):
            EncodeSearchService(service, float_pipe)
