"""Tests of HDC clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import make_face_like
from repro.hdc.cluster import HDCluster, clustering_accuracy
from repro.hdc.encoder import RandomProjectionEncoder
from tests.oracles import exact_init_indices, mask_loop_cluster_fit


def encoded_blobs(n_clusters=3, n_per=40, dimension=1024, seed=6):
    """Well-separated encoded clusters with ground-truth labels.

    Uses the *linear* projection: unsupervised Lloyd clustering needs the
    encoder to preserve metric structure (see the module docstring of
    repro.hdc.cluster).
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, 32)) * 4.0
    samples, labels = [], []
    for c in range(n_clusters):
        samples.append(centers[c] + rng.normal(size=(n_per, 32)))
        labels.extend([c] * n_per)
    x = np.concatenate(samples)
    encoder = RandomProjectionEncoder(32, dimension, nonlinear=False, seed=seed)
    encoded = encoder.encode(x)
    encoded -= encoded.mean(axis=0)
    return encoded, np.array(labels)


@st.composite
def tied_level_samples(draw):
    """Integer level rows (0-3) drawn from a small pool, so duplicate
    rows and equal cosines are common; no row is all-zero."""
    dimension = draw(st.integers(1, 16))
    pool = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dimension,
                 max_size=dimension),
        min_size=1, max_size=10,
    )))
    n = draw(st.integers(2, 60))
    picks = draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=n, max_size=n
    ))
    rows = pool[picks]
    rows[~rows.any(axis=1), 0] = 1
    k = draw(st.integers(2, min(8, n)))
    return rows.astype(np.float64), k, draw(st.integers(0, 2**32 - 1))


class TestHDCluster:
    def test_recovers_separated_clusters(self):
        encoded, labels = encoded_blobs()
        result = HDCluster(k=3, seed=1).fit(encoded)
        assert clustering_accuracy(result.assignments, labels) > 0.95

    def test_converges(self):
        encoded, _ = encoded_blobs()
        result = HDCluster(k=3, max_iterations=50, seed=1).fit(encoded)
        assert result.converged
        assert result.iterations < 50

    def test_centroid_shapes(self):
        encoded, _ = encoded_blobs(dimension=512)
        result = HDCluster(k=3, seed=1).fit(encoded)
        assert result.centroids.shape == (3, 512)

    def test_deterministic_given_seed(self):
        encoded, _ = encoded_blobs()
        a = HDCluster(k=3, seed=2).fit(encoded)
        b = HDCluster(k=3, seed=2).fit(encoded)
        assert np.array_equal(a.assignments, b.assignments)

    def test_all_clusters_used(self):
        encoded, _ = encoded_blobs(n_clusters=4)
        result = HDCluster(k=4, seed=1).fit(encoded)
        assert len(np.unique(result.assignments)) == 4

    def test_works_on_real_encoder_pipeline(self):
        ds = make_face_like(200, 50)
        encoder = RandomProjectionEncoder(ds.n_features, 1024,
                                          nonlinear=False, seed=3)
        encoded = encoder.encode(ds.x_train)
        encoded -= encoded.mean(axis=0)
        result = HDCluster(k=2, seed=1).fit(encoded)
        assert clustering_accuracy(result.assignments, ds.y_train) > 0.8

    def test_nonlinear_encoding_hurts_clustering(self):
        """The documented caveat: the trigonometric nonlinearity saturates
        inter-cluster distances and defeats Lloyd-style clustering."""
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(3, 32)) * 4.0
        x = np.concatenate(
            [centers[c] + rng.normal(size=(40, 32)) for c in range(3)]
        )
        labels = np.repeat(np.arange(3), 40)
        nonlinear = RandomProjectionEncoder(32, 1024, nonlinear=True, seed=6)
        encoded = nonlinear.encode(x)
        encoded -= encoded.mean(axis=0)
        result = HDCluster(k=3, seed=1).fit(encoded)
        linear_result = HDCluster(k=3, seed=1).fit(encoded_blobs()[0])
        assert clustering_accuracy(result.assignments, labels) < (
            clustering_accuracy(linear_result.assignments, encoded_blobs()[1])
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            HDCluster(k=1)
        with pytest.raises(ValueError, match="at least k"):
            HDCluster(k=5).fit(np.ones((3, 8)))
        with pytest.raises(ValueError, match="2-D"):
            HDCluster(k=2).fit(np.ones(8))
        with_zero_row = np.ones((6, 4))
        with_zero_row[3] = 0.0
        with pytest.raises(ValueError, match="zero vectors"):
            HDCluster(k=2).fit(with_zero_row)

    @settings(max_examples=150, deadline=None)
    @given(tied_level_samples())
    def test_init_picks_match_the_exact_rational_oracle(self, case):
        """Equal cosines tie exactly: the incremental float keys pick
        what exact Fraction keys pick, lowest index first."""
        rows, k, seed = case
        got = HDCluster(k=k)._init_indices(
            rows, np.random.default_rng(seed)
        )
        want = exact_init_indices(rows, k, np.random.default_rng(seed))
        assert got.tolist() == want


def _assert_fit_matches_mask_loop(cluster, encoded):
    """The fit is the mask-loop reference's, bit for bit; returns the
    reference's re-seed count."""
    (centroids, assignments, iterations, converged), reseeds = (
        mask_loop_cluster_fit(cluster, encoded)
    )
    result = cluster.fit(encoded)
    assert result.centroids.tobytes() == centroids.tobytes()
    assert result.assignments.tolist() == assignments.tolist()
    assert (result.iterations, result.converged) == (iterations, converged)
    return reseeds


class TestLloydUpdate:
    @settings(max_examples=60, deadline=None)
    @given(tied_level_samples())
    def test_matches_the_mask_loop_on_tied_levels(self, case):
        rows, k, seed = case
        _assert_fit_matches_mask_loop(
            HDCluster(k=k, seed=seed, n_init=2), rows
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_matches_the_mask_loop_on_gaussian_input(self, seed, k):
        encoded = np.random.default_rng(seed).standard_normal((80, 24))
        _assert_fit_matches_mask_loop(
            HDCluster(k=k, seed=seed, n_init=2), encoded
        )

    def test_matches_the_mask_loop_through_empty_cluster_reseeds(self):
        # Duplicate rows: two centroids on copies of one row tie, the
        # lower id takes every member, and the other is re-seeded.
        encoded = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3 + [[1.0, 1.0]])
        reseeds = sum(
            _assert_fit_matches_mask_loop(
                HDCluster(k=4, seed=seed, n_init=1, max_iterations=4),
                encoded,
            )
            for seed in range(8)
        )
        assert reseeds > 0


class TestClusteringAccuracy:
    def test_perfect_assignment(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_relabeled_assignment_still_perfect(self):
        labels = np.array([0, 0, 1, 1])
        assignments = np.array([1, 1, 0, 0])
        assert clustering_accuracy(assignments, labels) == 1.0

    def test_random_assignment_poor(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=400)
        assignments = rng.integers(0, 4, size=400)
        assert clustering_accuracy(assignments, labels) < 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            clustering_accuracy(np.zeros(3), np.zeros(4))
