"""Tests of the feature -> level encode pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDAMConfig
from repro.datasets.synthetic import (
    make_face_like,
    make_isolet_like,
    make_ucihar_like,
)
from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.pipeline import EncodePipeline, build_pipeline
from repro.hdc.quantize import quantize_equal_area
from tests.oracles import reference_query_levels


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=60)
    enc = RandomProjectionEncoder(12, 64, seed=1)
    clf = HDCClassifier(enc, 3).fit(x, y, epochs=2)
    return clf, x


class TestEncodePipeline:
    def test_float_pipeline_matches_manual_path(self, trained):
        clf, x = trained
        model = quantize_equal_area(clf.prototypes, 2)
        pipe = EncodePipeline(clf, model)
        assert not pipe.in_fabric
        levels = pipe.query_levels(x[:5])
        manual = model.quantize_queries(clf.encode(x[:5]))
        assert np.array_equal(levels, manual)
        assert levels.min() >= 0 and levels.max() < 4

    def test_fabric_pipeline_reports_cost(self, trained):
        clf, x = trained
        pipe = build_pipeline(clf, bits=2, fabric=True)
        assert pipe.in_fabric
        cost = pipe.encode_cost(3)
        assert cost is not None and cost.latency_s > 0
        levels = pipe.query_levels(x[:4])
        assert levels.shape == (4, 64)

    def test_float_pipeline_has_no_fabric_cost(self, trained):
        clf, _ = trained
        pipe = build_pipeline(clf, bits=2)
        assert pipe.encode_cost() is None

    def test_fabric_levels_mostly_agree_with_float(self, trained):
        clf, x = trained
        float_pipe = build_pipeline(clf, bits=2)
        fabric_pipe = build_pipeline(clf, bits=2, fabric=True)
        a = float_pipe.query_levels(x[:20])
        b = fabric_pipe.query_levels(x[:20])
        assert (a == b).mean() > 0.9

    def test_untrained_classifier_rejected(self):
        enc = RandomProjectionEncoder(12, 64, seed=1)
        clf = HDCClassifier(enc, 3)
        model_like = quantize_equal_area(np.random.default_rng(0).normal(size=(3, 64)), 2)
        with pytest.raises(RuntimeError, match="fit"):
            EncodePipeline(clf, model_like)

    def test_dimension_mismatch_rejected(self, trained):
        clf, _ = trained
        wrong = quantize_equal_area(
            np.random.default_rng(0).normal(size=(3, 32)), 2
        )
        with pytest.raises(ValueError, match="dimension"):
            EncodePipeline(clf, wrong)

    def test_encoder_geometry_mismatch_rejected(self, trained):
        clf, _ = trained
        model = quantize_equal_area(clf.prototypes, 2)
        other = RandomProjectionEncoder(12, 128, seed=1)
        with pytest.raises(ValueError, match="geometry"):
            EncodePipeline(clf, model, encoder=other)

    def test_build_pipeline_passes_fabric_config(self, trained):
        clf, _ = trained
        config = TDAMConfig(bits=1, n_stages=64, vdd=0.7)
        pipe = build_pipeline(
            clf, bits=2, fabric=True, weight_bits=4, act_bits=5,
            config=config,
        )
        assert pipe.encoder.weight_bits == 4
        assert pipe.encoder.act_bits == 5
        assert pipe.encoder.plan.config is config

    def test_repr(self, trained):
        clf, _ = trained
        assert "fabric" in repr(build_pipeline(clf, bits=2, fabric=True))
        assert "float" in repr(build_pipeline(clf, bits=2))


DATASETS = {
    "isolet": make_isolet_like,
    "ucihar": make_ucihar_like,
    "face": make_face_like,
}


class TestQueryLevelsOracle:
    """query_levels equals the int64-MVM, np.digitize reference."""

    @given(
        dataset=st.sampled_from(sorted(DATASETS)),
        seed=st.integers(0, 20),
        dimension=st.sampled_from([64, 500, 2048]),
        bits=st.integers(1, 3),
        encoder=st.sampled_from(["float", "8/8", "4/6", "2/2"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, dataset, seed, dimension, bits, encoder):
        ds = DATASETS[dataset](390, 40, seed=seed)
        enc = RandomProjectionEncoder(ds.n_features, dimension, seed=seed)
        clf = HDCClassifier(enc, ds.n_classes).fit(
            ds.x_train, ds.y_train, epochs=1
        )
        if encoder == "float":
            pipe = build_pipeline(clf, bits)
        else:
            w_bits, a_bits = map(int, encoder.split("/"))
            pipe = build_pipeline(
                clf, bits, fabric=True, weight_bits=w_bits, act_bits=a_bits
            )
        for features in (ds.x_test, ds.x_test[:1]):
            levels = pipe.query_levels(features)
            assert levels.dtype == np.int64
            np.testing.assert_array_equal(
                levels, reference_query_levels(pipe, features)
            )
