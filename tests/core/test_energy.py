"""Tests of the analytic timing/energy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDAMConfig
from repro.core.energy import TimingEnergyModel


@pytest.fixture
def model(config):
    return TimingEnergyModel(config)


class TestDelayLaw:
    def test_paper_formula(self, config, model):
        """d_tot = 2 * N_tot * d_INV + N_mis * d_C (Sec. III-B)."""
        n = config.n_stages
        for n_mis in (0, 1, 7, n):
            expected = 2 * n * model.d_inv + n_mis * model.d_c
            assert model.chain_delay(n_mis) == pytest.approx(expected)

    def test_step_delay(self, config, model):
        n = config.n_stages
        assert model.step_delay(3) == pytest.approx(n * model.d_inv + 3 * model.d_c)

    def test_d_c_dominates_d_inv(self, model):
        """The mismatch signal is much larger than the intrinsic delay."""
        assert model.d_c > 5 * model.d_inv

    def test_delay_inversion_roundtrip(self, model):
        delay = model.chain_delay(13)
        assert model.delay_to_mismatches(delay) == pytest.approx(13.0)

    def test_rejects_out_of_range_mismatches(self, config, model):
        with pytest.raises(ValueError, match="n_mismatch"):
            model.chain_delay(config.n_stages + 1)
        with pytest.raises(ValueError, match="n_mismatch"):
            model.chain_delay(-1)

    def test_overrides_take_effect(self, config):
        model = TimingEnergyModel(config, d_inv_override=5e-12, d_c_override=50e-12)
        assert model.d_inv == 5e-12
        assert model.d_c == 50e-12


class TestScaling:
    def test_d_c_linear_in_load_cap(self, config):
        d1 = TimingEnergyModel(config.with_(c_load_f=6e-15)).d_c
        d2 = TimingEnergyModel(config.with_(c_load_f=12e-15)).d_c
        assert d2 / d1 == pytest.approx(2.0)

    def test_delay_grows_at_low_vdd(self, config):
        nominal = TimingEnergyModel(config)
        scaled = TimingEnergyModel(config.with_(vdd=0.6))
        assert scaled.d_inv > nominal.d_inv
        assert scaled.d_c > nominal.d_c

    def test_energy_drops_at_low_vdd(self, config):
        nominal = TimingEnergyModel(config).search_cost(16).energy_j
        scaled = TimingEnergyModel(config.with_(vdd=0.6)).search_cost(16).energy_j
        assert scaled < nominal

    def test_energy_proportional_to_c_times_mismatches(self, config):
        """The Fig. 5(a) diagonal-contour property: the load-cap term
        scales with C_load * N_mis."""
        m1 = TimingEnergyModel(config.with_(c_load_f=6e-15))
        m2 = TimingEnergyModel(config.with_(c_load_f=12e-15))
        load1 = m1.search_cost(8).energy_breakdown_j["load_caps"]
        load2a = m2.search_cost(4).energy_breakdown_j["load_caps"]
        load2b = m1.search_cost(16).energy_breakdown_j["load_caps"]
        assert load1 == pytest.approx(load2a)
        assert load2b == pytest.approx(2 * load1)


class TestSearchCost:
    def test_breakdown_sums_to_total(self, model):
        cost = model.search_cost(10)
        assert cost.energy_j == pytest.approx(
            sum(cost.energy_breakdown_j.values())
        )

    def test_zero_mismatch_has_no_load_energy(self, model):
        cost = model.search_cost(0)
        assert cost.energy_breakdown_j["load_caps"] == 0.0
        assert cost.energy_breakdown_j["match_nodes"] == 0.0

    def test_per_step_delays_sum(self, model):
        cost = model.search_cost(9, n_mismatch_even=4)
        assert cost.delay_s == pytest.approx(
            cost.delay_rising_s + cost.delay_falling_s
        )

    def test_bad_even_split_rejected(self, model):
        with pytest.raises(ValueError, match="n_mismatch_even"):
            model.search_cost(3, n_mismatch_even=5)

    def test_tdc_excludable(self, model):
        with_tdc = model.search_cost(5).energy_j
        without = model.search_cost(5, include_tdc=False).energy_j
        assert without < with_tdc

    def test_array_cost_latency_is_slowest_chain(self, model):
        cost = model.array_search_cost([0, 5, 20])
        assert cost.delay_s == pytest.approx(model.search_cost(20).delay_s)

    def test_array_cost_energy_sums(self, model):
        individual = [model.search_cost(m).energy_j for m in (0, 5, 20)]
        cost = model.array_search_cost([0, 5, 20])
        assert cost.energy_j == pytest.approx(sum(individual))

    def test_array_cost_empty_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.array_search_cost([])


class TestEnergyTable:
    @given(
        bits=st.integers(min_value=1, max_value=3),
        n_stages=st.integers(min_value=1, max_value=2048),
        vdd=st.sampled_from([0.5, 0.6, 0.8, 1.1]),
        include_tdc=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_table_is_the_scalar_law_bit_for_bit(
        self, bits, n_stages, vdd, include_tdc
    ):
        model = TimingEnergyModel(
            TDAMConfig(bits=bits, n_stages=n_stages, vdd=vdd)
        )
        table = model.search_energy_table(include_tdc)
        assert table.shape == (n_stages + 1,)
        scalar = [
            model.search_cost(m, include_tdc=include_tdc).energy_j
            for m in range(n_stages + 1)
        ]
        assert table.tolist() == scalar

    def test_table_is_cached_per_tdc_flag(self, model):
        assert model.search_energy_table() is model.search_energy_table()
        assert (
            model.search_energy_table(False) < model.search_energy_table()
        ).all()


class TestEfficiency:
    def test_best_point_near_paper_headline(self):
        """0.159 fJ/bit at the paper's 0.6 V system operating point."""
        model = TimingEnergyModel(TDAMConfig(vdd=0.6))
        assert model.energy_per_bit() * 1e15 == pytest.approx(0.159, rel=0.1)

    def test_energy_per_bit_custom_activity(self, model):
        low = model.energy_per_bit(n_mismatch=1)
        high = model.energy_per_bit(n_mismatch=30)
        assert low < high


class TestMonotonicityProperties:
    @given(
        n_mis=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=30, deadline=None)
    def test_delay_strictly_increasing_in_mismatches(self, n_mis):
        model = TimingEnergyModel(TDAMConfig())
        assert model.chain_delay(n_mis + 1) > model.chain_delay(n_mis)

    @given(
        n_mis=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=30, deadline=None)
    def test_energy_nondecreasing_in_mismatches(self, n_mis):
        model = TimingEnergyModel(TDAMConfig())
        assert (
            model.search_cost(n_mis + 1).energy_j
            >= model.search_cost(n_mis).energy_j
        )

    @given(vdd=st.floats(min_value=0.5, max_value=1.1))
    @settings(max_examples=20, deadline=None)
    def test_delays_positive_across_vdd(self, vdd):
        model = TimingEnergyModel(TDAMConfig().with_(vdd=vdd))
        assert model.d_inv > 0
        assert model.d_c > 0
