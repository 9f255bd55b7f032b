"""Statistical sanity checks on the simulated corpora.

These guard the *difficulty ordering* that drives the paper's results:
short low-power appliances must stay rare and hard, long high-power
appliances frequent enough to learn from.
"""

import numpy as np
import pytest

from repro import simdata as sd


@pytest.fixture(scope="module")
def ukdale():
    return sd.ukdale_like(days=6.0, seed=0)


class TestDutyCycles:
    """ON-fraction bands per appliance across a whole corpus."""

    def _on_fraction(self, corpus, appliance):
        fractions = []
        for house in corpus.houses:
            power = house.appliance_power.get(appliance)
            if power is None:
                continue
            spec = sd.get_spec(appliance)
            fractions.append((power >= spec.on_threshold_watts).mean())
        return np.mean(fractions) if fractions else None

    def test_kettle_sparse(self, ukdale):
        frac = self._on_fraction(ukdale, "kettle")
        assert frac is not None
        assert 0.001 < frac < 0.05  # a few minutes, a few times a day

    def test_dishwasher_moderate(self, ukdale):
        frac = self._on_fraction(ukdale, "dishwasher")
        assert frac is not None
        assert 0.005 < frac < 0.15

    def test_microwave_rarest(self, ukdale):
        micro = self._on_fraction(ukdale, "microwave")
        dish = self._on_fraction(ukdale, "dishwasher")
        if micro is not None and dish is not None:
            assert micro < dish  # microwave is the hard, rare case


class TestAggregateComposition:
    def test_aggregate_never_negative(self, ukdale):
        for house in ukdale.houses:
            valid = house.aggregate[~np.isnan(house.aggregate)]
            assert (valid >= 0).all()

    def test_base_load_present(self, ukdale):
        """Even at night the aggregate stays above zero (base + fridge)."""
        for house in ukdale.houses:
            valid = house.aggregate[~np.isnan(house.aggregate)]
            assert np.quantile(valid, 0.05) > 20.0

    def test_appliance_peaks_visible_in_aggregate(self, ukdale):
        house = ukdale.houses[0]
        for appliance, power in house.appliance_power.items():
            spec = sd.get_spec(appliance)
            on = power >= spec.on_threshold_watts
            if on.any():
                # At ON timestamps the aggregate includes the appliance draw.
                assert (house.aggregate[on] >= power[on] * 0.8).mean() > 0.9

    def test_distinct_houses_distinct_signals(self, ukdale):
        a, b = ukdale.houses[0].aggregate, ukdale.houses[1].aggregate
        n = min(len(a), len(b))
        assert not np.allclose(np.nan_to_num(a[:n]), np.nan_to_num(b[:n]))


class TestHourOfDayUsage:
    def test_kettle_morning_bias(self):
        """Kettle events concentrate around the configured peak hours."""
        spec = sd.get_spec("kettle")
        rng = np.random.default_rng(0)
        n = int(10 * 86400 / 60)  # 10 days at 1-minute
        channel = sd.simulate_appliance_channel("kettle", n, 60.0, rng, usage_scale=2.0)
        on_idx = np.flatnonzero(channel >= spec.on_threshold_watts)
        if len(on_idx) < 10:
            pytest.skip("too few events sampled")
        hours = (on_idx * 60.0 / 3600.0) % 24
        morning = ((hours >= 6) & (hours <= 9)).mean()
        night = ((hours >= 1) & (hours <= 4)).mean()
        assert morning > night

    def test_ev_overnight_bias(self):
        spec = sd.get_spec("electric_vehicle")
        rng = np.random.default_rng(1)
        n = int(30 * 86400 / 1800)  # 30 days at 30-minute
        channel = sd.simulate_appliance_channel(
            "electric_vehicle", n, 1800.0, rng, usage_scale=2.0
        )
        on_idx = np.flatnonzero(channel >= spec.on_threshold_watts)
        if len(on_idx) < 10:
            pytest.skip("too few events sampled")
        hours = (on_idx * 1800.0 / 3600.0) % 24
        evening_night = ((hours >= 19) | (hours <= 6)).mean()
        assert evening_night > 0.5
