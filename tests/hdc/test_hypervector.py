"""Tests of hypervector primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hdc.hypervector import (
    bind,
    bundle,
    bundle_groups,
    level_hypervectors,
    permute,
    random_bipolar,
    random_gaussian,
)


class TestGenerators:
    def test_bipolar_values(self):
        hvs = random_bipolar(5, 256, np.random.default_rng(0))
        assert set(np.unique(hvs)) == {-1.0, 1.0}
        assert hvs.shape == (5, 256)

    def test_bipolar_quasi_orthogonal(self):
        """Random HVs are nearly orthogonal in high dimension."""
        hvs = random_bipolar(2, 10000, np.random.default_rng(1))
        cos = np.dot(hvs[0], hvs[1]) / 10000
        assert abs(cos) < 0.05

    def test_gaussian_statistics(self):
        hvs = random_gaussian(4, 5000, np.random.default_rng(2))
        assert abs(hvs.mean()) < 0.05
        assert hvs.std() == pytest.approx(1.0, rel=0.05)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_bipolar(0, 10)
        with pytest.raises(ValueError):
            random_gaussian(1, 0)


class TestLevelHypervectors:
    def test_similarity_decreases_with_level_distance(self):
        levels = level_hypervectors(8, 4096, np.random.default_rng(3))
        sims = [
            float(np.dot(levels[0], levels[k]) / 4096) for k in range(8)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(sims, sims[1:]))
        assert sims[0] == pytest.approx(1.0)

    def test_extreme_levels_dissimilar(self):
        levels = level_hypervectors(8, 4096, np.random.default_rng(3))
        assert np.dot(levels[0], levels[-1]) / 4096 < 0.4

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="n_levels"):
            level_hypervectors(1, 128)


class TestAlgebra:
    def test_bind_is_elementwise_product(self):
        a = np.array([1.0, -1.0, 1.0])
        b = np.array([-1.0, -1.0, 1.0])
        assert np.array_equal(bind(a, b), [-1.0, 1.0, 1.0])

    def test_bind_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            bind(np.ones(3), np.ones(4))

    def test_bundle_sums(self):
        out = bundle([np.ones(4), 2 * np.ones(4)])
        assert np.array_equal(out, 3 * np.ones(4))

    def test_bundle_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bundle([])

    def test_permute_rolls(self):
        hv = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(permute(hv, 1), [3.0, 1.0, 2.0])

    def test_permute_inverse(self):
        hv = np.arange(10, dtype=float)
        assert np.array_equal(permute(permute(hv, 3), -3), hv)

    def test_permute_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            permute(np.ones((2, 2)))

    @given(shift=st.integers(-20, 20))
    @settings(max_examples=20, deadline=None)
    def test_permute_preserves_contents(self, shift):
        hv = np.arange(32, dtype=float)
        assert sorted(permute(hv, shift)) == sorted(hv)

    @given(n=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_bind_self_inverse_for_bipolar(self, n):
        """x (x) x = identity for bipolar hypervectors."""
        hv = random_bipolar(1, 64, np.random.default_rng(n))[0]
        assert np.array_equal(bind(hv, hv), np.ones(64))


@st.composite
def grouped_rows(draw):
    """Float rows with group ids; some groups stay empty, and groups of
    more than eight rows take numpy's pairwise path on one column."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows = draw(st.integers(0, 60))
    n_cols = draw(st.integers(1, 5))
    n_groups = draw(st.integers(1, 6))
    hvs = draw(hnp.arrays(dtype, (n_rows, n_cols), elements=st.floats(
        -1e6, 1e6, allow_nan=False, width=np.dtype(dtype).itemsize * 8,
    )))
    groups = draw(hnp.arrays(
        np.int64, n_rows, elements=st.integers(0, n_groups - 1)
    ))
    return hvs, groups, n_groups


class TestBundleGroups:
    @given(grouped_rows())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_mask_loop_bit_for_bit(self, case):
        hvs, groups, n_groups = case
        bundles, counts = bundle_groups(hvs, groups, n_groups)
        assert bundles.dtype == hvs.dtype
        for g in range(n_groups):
            members = hvs[groups == g]
            assert counts[g] == len(members)
            assert bundles[g].tobytes() == members.sum(axis=0).tobytes()

    @given(grouped_rows())
    @settings(max_examples=150, deadline=None)
    def test_equals_add_at_on_two_or_more_columns(self, case):
        hvs, groups, n_groups = case
        # One column numpy sums pairwise; np.add.at adds in order.
        hvs = np.concatenate([hvs, hvs[:, ::-1]], axis=1)
        bundles, _ = bundle_groups(hvs, groups, n_groups)
        want = np.zeros((n_groups, hvs.shape[1]), dtype=hvs.dtype)
        np.add.at(want, groups, hvs)
        assert bundles.tobytes() == want.tobytes()

    def test_empty_group_is_zero(self):
        hvs = np.arange(6, dtype=np.float32).reshape(3, 2)
        bundles, counts = bundle_groups(hvs, np.array([2, 0, 2]), 4)
        assert counts.tolist() == [1, 0, 2, 0]
        assert bundles.tolist() == [[2, 3], [0, 0], [4, 6], [0, 0]]
