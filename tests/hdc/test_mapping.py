"""Tests of the TD-AM inference mapping."""

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.devices.variation import VariationModel
from repro.hdc.mapping import TDAMInference
from repro.hdc.quantize import QuantizedModel, quantize_equal_area
from tests.oracles import batched_mismatch_counts


def make_model(bits=2, n_classes=4, dimension=300, seed=0):
    protos = np.random.default_rng(seed).normal(size=(n_classes, dimension))
    return quantize_equal_area(protos, bits)


@pytest.fixture
def inference():
    return TDAMInference(make_model(), n_features=100)


class TestFunctional:
    def test_prototype_queries_classify_perfectly(self, inference):
        """Each class's own level vector is its nearest neighbour."""
        queries = inference.model.levels
        assert np.array_equal(
            inference.predict(queries), np.arange(queries.shape[0])
        )

    def test_mismatch_counts_are_hamming(self, inference):
        queries = inference.model.levels[:2]
        counts = inference.mismatch_counts(queries)
        expected = (
            queries[:, None, :] != inference.model.levels[None, :, :]
        ).sum(axis=2)
        assert np.array_equal(counts, expected)

    def test_chunking_consistent(self, inference):
        """Chunked evaluation equals one-shot evaluation (variation path)."""
        var_inf = TDAMInference(
            make_model(), n_features=100,
            variation=VariationModel(sigma_mv=30.0, seed=4),
        )
        queries = np.random.default_rng(5).integers(0, 4, size=(10, 300))
        a = var_inf.mismatch_counts(queries, chunk=3)
        b = var_inf.mismatch_counts(queries, chunk=100)
        assert np.array_equal(a, b)

    def test_seeded_variation_counts_are_the_oracle(self):
        """Offsets are drawn F_A-then-F_B over the whole class matrix;
        the counts are the conduction tensor of those thresholds."""
        model = make_model()
        config = TDAMConfig(bits=2, n_stages=128, vdd=0.6)
        var_inf = TDAMInference(
            model, config=config, n_features=100,
            variation=VariationModel(sigma_mv=60.0, seed=4),
        )
        stored = model.levels
        draw = VariationModel(sigma_mv=60.0, seed=4)
        off_a = draw.draw(stored.reshape(-1)).vth_shifts.reshape(stored.shape)
        off_b = draw.draw((3 - stored).reshape(-1)).vth_shifts.reshape(
            stored.shape
        )
        vth = np.array(config.vth_levels)
        queries = np.random.default_rng(6).integers(0, 4, size=(9, 300))
        want = batched_mismatch_counts(
            queries, vth[stored] + off_a, vth[3 - stored] + off_b,
            np.array(config.vsl_levels), config.levels, var_inf._von,
        )
        assert np.array_equal(var_inf.mismatch_counts(queries), want)
        assert np.array_equal(var_inf.mismatch_counts(queries, chunk=2), want)

    def test_four_bit_nominal_counts_are_hamming(self):
        # The calibrated 4-bit cell cannot resolve adjacent levels; the
        # nominal model still counts exact-match Hamming distance.
        inference = TDAMInference(make_model(bits=4), n_features=100)
        queries = np.random.default_rng(7).integers(0, 16, size=(6, 300))
        expected = (
            queries[:, None, :] != inference.model.levels[None, :, :]
        ).sum(axis=2)
        assert np.array_equal(inference.mismatch_counts(queries), expected)

    def test_variation_perturbs_counts(self):
        clean = TDAMInference(make_model(), n_features=100)
        noisy = TDAMInference(
            make_model(), n_features=100,
            variation=VariationModel(sigma_mv=200.0, seed=4),
        )
        queries = np.random.default_rng(5).integers(0, 4, size=(5, 300))
        assert not np.array_equal(
            clean.mismatch_counts(queries), noisy.mismatch_counts(queries)
        )

    def test_accuracy_helper(self, inference):
        queries = inference.model.levels
        labels = np.arange(queries.shape[0])
        assert inference.accuracy(queries, labels) == 1.0

    def test_query_validation(self, inference):
        with pytest.raises(ValueError, match="dimension"):
            inference.predict(np.zeros((1, 5), dtype=int))
        with pytest.raises(ValueError, match="levels"):
            inference.predict(np.full((1, 300), 9))


class TestArchitectureCost:
    def test_tile_count(self):
        inference = TDAMInference(
            make_model(dimension=300),
            config=TDAMConfig(bits=2, n_stages=128, vdd=0.6),
            n_features=100,
        )
        assert inference.tiles == 3  # ceil(300 / 128)

    def test_latency_grows_with_dimension(self):
        small = TDAMInference(make_model(dimension=256), n_features=100)
        large = TDAMInference(make_model(dimension=2048), n_features=100)
        assert large.query_cost().latency_s > small.query_cost().latency_s

    def test_energy_dominated_by_encoder(self, inference):
        cost = inference.query_cost()
        assert cost.encode_energy_j > cost.search_energy_j
        assert cost.energy_j == pytest.approx(
            cost.encode_energy_j + cost.search_energy_j
        )

    def test_mismatch_fraction_affects_energy_not_latency(self, inference):
        low = inference.query_cost(mismatch_fraction=0.1)
        high = inference.query_cost(mismatch_fraction=0.9)
        assert high.energy_j > low.energy_j
        assert high.latency_s == low.latency_s

    def test_mismatch_fraction_validated(self, inference):
        with pytest.raises(ValueError, match="mismatch_fraction"):
            inference.query_cost(mismatch_fraction=1.5)


class TestConstruction:
    def test_bits_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            TDAMInference(
                make_model(bits=2), config=TDAMConfig(bits=1, n_stages=64)
            )

    def test_turn_on_overdrive_positive(self, inference):
        assert 0 < inference._von < 0.2


class TestTopK:
    def naive_top_k(self, counts, k):
        out = np.empty((counts.shape[0], k), dtype=np.int64)
        for i in range(counts.shape[0]):
            out[i] = np.lexsort(
                (np.arange(counts.shape[1]), counts[i])
            )[:k]
        return out

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_pruned_matches_ranked_counts(self, inference, k):
        queries = np.random.default_rng(9).integers(0, 4, size=(7, 300))
        got = inference.top_k(queries, k)
        expected = self.naive_top_k(inference.mismatch_counts(queries), k)
        assert np.array_equal(got, expected)

    def test_top_1_agrees_with_predict(self, inference):
        queries = np.random.default_rng(10).integers(0, 4, size=(9, 300))
        assert np.array_equal(
            inference.top_k(queries, 1)[:, 0], inference.predict(queries)
        )

    def test_variation_fallback_matches_ranked_counts(self):
        var_inf = TDAMInference(
            make_model(), n_features=100,
            variation=VariationModel(sigma_mv=30.0, seed=4),
        )
        queries = np.random.default_rng(11).integers(0, 4, size=(6, 300))
        got = var_inf.top_k(queries, 2)
        expected = self.naive_top_k(var_inf.mismatch_counts(queries), 2)
        assert np.array_equal(got, expected)

    def test_chunked_agrees(self, inference):
        queries = np.random.default_rng(12).integers(0, 4, size=(10, 300))
        assert np.array_equal(
            inference.top_k(queries, 3, chunk=3),
            inference.top_k(queries, 3, chunk=100),
        )

    def test_k_validation(self, inference):
        queries = np.zeros((1, 300), dtype=np.int64)
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            inference.top_k(queries, 5)

    def test_packed_counts_match_direct_comparison(self, inference):
        # The packed bit-plane path of mismatch_counts against the
        # obvious dense comparison, across chunk boundaries.
        queries = np.random.default_rng(13).integers(0, 4, size=(5, 300))
        counts = inference.mismatch_counts(queries, chunk=2)
        expected = (
            queries[:, None, :] != inference.model.levels[None, :, :]
        ).sum(axis=2)
        assert np.array_equal(counts, expected)
