"""Tests of the equal-area class-hypervector quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.quantize import (
    QuantizedModel,
    _levels,
    _make_strictly_increasing,
    quantize_equal_area,
    quantize_uniform,
)


@pytest.fixture
def prototypes(rng):
    return rng.normal(size=(6, 2000))


class TestEqualArea:
    def test_levels_in_range(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        assert qm.levels.min() >= 0
        assert qm.levels.max() <= 3

    def test_equal_occupancy(self, prototypes):
        """The defining property: each level holds ~equal probability mass."""
        qm = quantize_equal_area(prototypes, bits=2)
        counts = np.bincount(qm.levels.reshape(-1), minlength=4)
        expected = prototypes.size / 4
        assert np.allclose(counts, expected, rtol=0.02)

    def test_edges_sorted(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=3)
        assert (np.diff(qm.edges) > 0).all()

    def test_centers_within_bins(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        assert qm.centers[0] < qm.edges[0]
        assert qm.centers[-1] > qm.edges[-1]
        assert (np.diff(qm.centers) > 0).all()

    def test_reconstruction_error_shrinks_with_bits(self, prototypes):
        normed = prototypes / np.linalg.norm(prototypes, axis=1, keepdims=True)
        errors = []
        for bits in (1, 2, 3, 4):
            qm = quantize_equal_area(prototypes, bits)
            errors.append(np.abs(qm.reconstruct() - normed).mean())
        assert errors == sorted(errors, reverse=True)

    def test_monotone_value_to_level(self, prototypes):
        """Larger prototype values never get smaller levels."""
        qm = quantize_equal_area(prototypes, bits=2)
        normed = prototypes / np.linalg.norm(prototypes, axis=1, keepdims=True)
        flat_v = normed.reshape(-1)
        flat_l = qm.levels.reshape(-1)
        order = np.argsort(flat_v)
        assert (np.diff(flat_l[order]) >= 0).all()

    def test_scale_invariance(self, prototypes):
        """Row normalization makes the levels scale-free."""
        a = quantize_equal_area(prototypes, bits=2)
        b = quantize_equal_area(prototypes * 37.0, bits=2)
        assert np.array_equal(a.levels, b.levels)

    def test_query_quantization_uses_model_edges(self, prototypes, rng):
        qm = quantize_equal_area(prototypes, bits=2)
        queries = rng.normal(size=(10, 2000))
        levels = qm.quantize_queries(queries)
        assert levels.shape == (10, 2000)
        assert levels.min() >= 0 and levels.max() <= 3

    def test_query_dimension_checked(self, prototypes):
        qm = quantize_equal_area(prototypes, bits=2)
        with pytest.raises(ValueError, match="dimension"):
            qm.quantize_queries(np.zeros((1, 7)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, prototypes, rng, bad):
        # np.digitize put NaN on the top level and the comparison rule
        # would put it on level 0; either is a silent wrong answer.
        qm = quantize_equal_area(prototypes, bits=2)
        queries = rng.normal(size=(3, 2000))
        queries[1, 17] = bad
        with pytest.raises(ValueError, match="finite"):
            qm.quantize_queries(queries)

    def test_degenerate_distribution_handled(self):
        """Constant prototypes must not crash the edge fitting."""
        constant = np.ones((2, 100))
        qm = quantize_equal_area(constant, bits=2)
        assert qm.levels.shape == (2, 100)

    def test_bits_validated(self, prototypes):
        with pytest.raises(ValueError, match="bits"):
            quantize_equal_area(prototypes, bits=0)

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_equal_area(np.zeros(10), bits=2)


class TestUniform:
    def test_uniform_spans_range(self, prototypes):
        qm = quantize_uniform(prototypes, bits=2)
        assert qm.method == "uniform"
        assert qm.levels.min() == 0
        assert qm.levels.max() == 3

    def test_uniform_edges_equally_spaced(self, prototypes):
        qm = quantize_uniform(prototypes, bits=3)
        spacings = np.diff(qm.edges)
        assert np.allclose(spacings, spacings[0])

    def test_uniform_occupancy_not_equal_for_gaussian(self, prototypes):
        """Gaussian data concentrates mass in the central uniform bins --
        the motivation for the equal-area scheme."""
        qm = quantize_uniform(prototypes, bits=2)
        counts = np.bincount(qm.levels.reshape(-1), minlength=4)
        assert counts[1] > 2 * counts[0]

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            quantize_uniform(np.ones((2, 10)), bits=2)


class TestModelValidation:
    """Models rebuilt from files must carry edges the level rule can
    count: 1-D, finite, strictly increasing, ``2**bits - 1`` of them."""

    @staticmethod
    def build(edges, bits=2):
        return QuantizedModel(
            levels=np.zeros((2, 4), dtype=np.int64),
            edges=np.asarray(edges, dtype=np.float64),
            centers=np.zeros(2**bits),
            bits=bits,
            method="equal-area",
        )

    def test_well_formed_model_accepted(self):
        assert self.build([-0.1, 0.0, 0.1]).n_levels == 4

    @pytest.mark.parametrize("bits", [0, 9])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(ValueError, match="bits"):
            self.build([0.0], bits=bits)

    @pytest.mark.parametrize(
        "edges", [[[-0.1, 0.0, 0.1]], [-0.1, np.nan, 0.1], [-np.inf, 0, 1]]
    )
    def test_edges_not_finite_1d(self, edges):
        with pytest.raises(ValueError, match="finite 1-D"):
            self.build(edges)

    @pytest.mark.parametrize(
        "edges", [[-0.1, 0.1, 0.1], [0.1, 0.0, -0.1], [-0.0, 0.0, 0.1]]
    )
    def test_edges_not_strictly_increasing(self, edges):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.build(edges)

    @pytest.mark.parametrize("edges", [[0.0], [-0.2, -0.1, 0.0, 0.1]])
    def test_edge_count_must_match_bits(self, edges):
        with pytest.raises(ValueError, match="needs 3 edges"):
            self.build(edges)


# Values the level rule must place exactly as np.digitize does: signed
# zeros, the smallest subnormals, huge magnitudes and infinities.
_FINITE_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]
_SPECIAL = _FINITE_SPECIAL + [np.inf, -np.inf]


@st.composite
def _edges_and_values(draw):
    bits = draw(st.integers(1, 8))
    n_edges = 2**bits - 1
    # Edges stay within +-1e300 so nudging never overflows to inf.
    raw = draw(
        st.lists(
            st.one_of(
                st.floats(-1e300, 1e300), st.sampled_from(_FINITE_SPECIAL)
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    # Duplicates: the nudged edges of a degenerate distribution.
    dup = draw(st.integers(1, n_edges))
    edges = _make_strictly_increasing(np.sort([raw[0]] * dup + raw[dup:]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(
        st.lists(
            st.one_of(finite, st.sampled_from(list(edges) + _SPECIAL)),
            min_size=1,
            max_size=64,
        )
    )
    return edges, np.asarray(values, dtype=np.float64)


class TestLevelRule:
    @given(case=_edges_and_values())
    @settings(max_examples=200, deadline=None)
    def test_counting_equals_digitize(self, case):
        edges, values = case
        levels = _levels(values, edges)
        assert levels.dtype == np.int64
        np.testing.assert_array_equal(levels, np.digitize(values, edges))

    def test_every_edge_is_its_own_upper_level(self):
        edges = _make_strictly_increasing(np.linspace(-1, 1, 255))
        np.testing.assert_array_equal(
            _levels(edges, edges), np.arange(1, 256)
        )
        np.testing.assert_array_equal(
            _levels(np.nextafter(edges, -np.inf), edges), np.arange(255)
        )


class TestProperties:
    @given(bits=st.integers(1, 4), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_balanced_for_any_gaussian(self, bits, seed):
        protos = np.random.default_rng(seed).normal(size=(3, 1024))
        qm = quantize_equal_area(protos, bits)
        counts = np.bincount(qm.levels.reshape(-1), minlength=2**bits)
        expected = protos.size / 2**bits
        assert counts.max() < 1.25 * expected
        assert counts.min() > 0.75 * expected
