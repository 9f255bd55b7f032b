"""Tests for the synthetic smart-meter substrate (signatures, households,
corpora)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simdata as sd
from repro.simdata.appliances import get_spec
from repro.simdata.household import _sample_event_starts


class TestApplianceSpecs:
    def test_registry_matches_table1(self):
        assert sd.get_spec("kettle").on_threshold_watts == 500.0
        assert sd.get_spec("kettle").avg_power_watts == 2000.0
        assert sd.get_spec("dishwasher").on_threshold_watts == 300.0
        assert sd.get_spec("dishwasher").avg_power_watts == 800.0
        assert sd.get_spec("microwave").on_threshold_watts == 200.0
        assert sd.get_spec("shower").avg_power_watts == 8000.0
        assert sd.get_spec("electric_vehicle").avg_power_watts == 4000.0
        assert sd.get_spec("washing_machine").avg_power_watts == 500.0

    def test_unknown_appliance_helpful_error(self):
        with pytest.raises(KeyError, match="known:"):
            sd.get_spec("toaster")

    def test_hour_weights_are_24(self):
        for spec in sd.APPLIANCES.values():
            assert len(spec.hour_weights) == 24

    def test_bad_spec_validation(self):
        with pytest.raises(ValueError):
            sd.ApplianceSpec("x", 1, 1, 1, (5.0, 2.0))


class TestSignatures:
    @pytest.mark.parametrize("name", sorted(sd.SIGNATURES))
    def test_nonnegative_and_right_length(self, name):
        rng = np.random.default_rng(0)
        trace = sd.generate_activation(name, duration_minutes=10.0, dt_seconds=60.0, rng=rng)
        assert len(trace) == 10
        assert (trace >= 0).all()

    def test_kettle_power_band(self):
        rng = np.random.default_rng(1)
        trace = sd.generate_activation("kettle", 4.0, 60.0, rng)
        assert 1500 < trace.max() < 2800

    def test_shower_is_high_power(self):
        rng = np.random.default_rng(2)
        trace = sd.generate_activation("shower", 8.0, 60.0, rng)
        assert trace.min() > 6000

    def test_dishwasher_has_heat_and_motor_phases(self):
        rng = np.random.default_rng(3)
        trace = sd.generate_activation("dishwasher", 100.0, 60.0, rng)
        assert trace.max() > 1800  # heating
        assert trace.min() < 300  # motor-only phases

    def test_ev_taper(self):
        rng = np.random.default_rng(4)
        trace = sd.generate_activation("electric_vehicle", 240.0, 1800.0, rng)
        assert trace[-1] < trace[0]  # constant-voltage taper

    def test_unknown_signature_raises(self):
        with pytest.raises(KeyError):
            sd.generate_activation("laser", 5.0, 60.0, np.random.default_rng(0))

    def test_respects_sampling_period(self):
        rng = np.random.default_rng(5)
        fine = sd.generate_activation("kettle", 10.0, 60.0, rng)
        coarse = sd.generate_activation("kettle", 10.0, 600.0, rng)
        assert len(fine) == 10 and len(coarse) == 1


def _event_starts_with_choice(spec, n, dt_seconds, rng, usage_scale):
    """The activation draw loop written with ``rng.choice``: the reference."""
    days = n / (86400.0 / dt_seconds)
    count = rng.poisson(max(spec.events_per_day * usage_scale, 0.0) * days)
    hour_weights = np.asarray(spec.hour_weights, dtype=np.float64)
    hour_probs = hour_weights / hour_weights.sum()
    starts = []
    for _ in range(count):
        day = rng.integers(0, max(int(np.ceil(days)), 1))
        hour = rng.choice(24, p=hour_probs)
        minute = rng.uniform(0.0, 60.0)
        index = int((day * 86400.0 + hour * 3600.0 + minute * 60.0) / dt_seconds)
        if index < n:
            starts.append(index)
    return sorted(starts)


class TestEventStarts:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.floats(0.0, 10.0), min_size=24, max_size=24),
        peak=st.integers(0, 23),
        appliance=st.sampled_from(sorted(sd.APPLIANCES)),
        events_per_day=st.floats(0.5, 40.0),
        days=st.integers(1, 5),
    )
    def test_hours_match_rng_choice(self, seed, weights, peak, appliance, events_per_day, days):
        """The same starts as ``rng.choice`` draws, and the generator ends
        in the same state, so the draws after them do not move either."""
        weights[peak] += 1.0
        spec = replace(
            get_spec(appliance), hour_weights=tuple(weights), events_per_day=events_per_day
        )
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        n = days * 1440
        got = _sample_event_starts(spec, n, 60.0, got_rng, 1.0)
        assert got == _event_starts_with_choice(spec, n, 60.0, want_rng, 1.0)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestHouseholdSimulation:
    def make_trace(self, **overrides):
        config = sd.HouseholdConfig(
            house_id="h1",
            owned={"kettle": 1.0, "dishwasher": 1.0},
            submetered=["kettle", "dishwasher"],
            days=3.0,
            dt_seconds=60.0,
            **overrides,
        )
        return sd.simulate_household(config, np.random.default_rng(0))

    def test_basic_shapes(self):
        trace = self.make_trace()
        assert trace.n_samples == 3 * 1440
        assert set(trace.appliance_power) == {"kettle", "dishwasher"}
        assert trace.duration_days == pytest.approx(3.0)

    def test_possession_flags(self):
        trace = self.make_trace()
        assert trace.possession["kettle"] is True
        assert trace.possession["shower"] is False

    def test_aggregate_contains_appliances(self):
        """Where the kettle is ON the aggregate must be at least near its draw."""
        trace = self.make_trace(noise_watts=1.0)
        kettle = trace.appliance_power["kettle"]
        on = kettle > 1500
        if on.any():
            assert (trace.aggregate[on] >= kettle[on] * 0.9).all()

    def test_status_uses_threshold(self):
        trace = self.make_trace()
        status = trace.status("kettle")
        power = trace.appliance_power["kettle"]
        assert np.array_equal(status, (power >= 500.0).astype(np.float32))

    def test_status_missing_submeter_raises(self):
        trace = self.make_trace()
        with pytest.raises(KeyError):
            trace.status("shower")

    def test_missing_rate_injects_nans(self):
        trace = self.make_trace(missing_rate=0.05)
        assert np.isnan(trace.aggregate).any()

    def test_deterministic_given_seed(self):
        a = self.make_trace()
        b = self.make_trace()
        assert np.array_equal(a.aggregate, b.aggregate, equal_nan=True)

    def test_unowned_appliance_not_simulated(self):
        config = sd.HouseholdConfig(
            house_id="h", owned={}, submetered=["kettle"], days=1.0
        )
        trace = sd.simulate_household(config, np.random.default_rng(0))
        assert trace.appliance_power == {}


class TestCorpora:
    def test_ukdale_structure(self):
        c = sd.ukdale_like(days=2.0, seed=0)
        assert len(c) == 5
        assert c.dt_seconds == 60.0
        assert c.max_ffill_samples == 3
        assert "kettle" in c.target_appliances

    def test_refit_structure(self):
        c = sd.refit_like(days=2.0, seed=0)
        assert len(c) == 20
        assert "washing_machine" in c.target_appliances

    def test_ideal_possession_only_houses(self):
        c = sd.ideal_like(days=2.0, n_submetered=5, n_possession_only=7, seed=0)
        assert len(c) == 12
        assert len(c.submetered_house_ids) == 5
        # possession-only houses have no channels
        extra = c.houses[-1]
        assert extra.appliance_power == {}
        assert extra.possession  # but they do answer the questionnaire

    def test_edf_ev_sampling_rate(self):
        c = sd.edf_ev_like(days=10.0, n_houses=3, seed=0)
        assert c.dt_seconds == 1800.0
        assert c.houses[0].n_samples == 10 * 48

    def test_edf_weak_has_no_submeters(self):
        c = sd.edf_weak_like(days=5.0, n_houses=6, seed=0)
        assert c.submetered_house_ids == []
        assert all(h.appliance_power == {} for h in c.houses)

    def test_house_lookup(self):
        c = sd.ukdale_like(days=1.0, seed=0)
        assert c.house("ukdale_h2").house_id == "ukdale_h2"
        with pytest.raises(KeyError):
            c.house("nope")

    def test_possession_labels_dict(self):
        c = sd.edf_weak_like(days=5.0, n_houses=10, seed=0)
        labels = c.possession_labels("electric_vehicle")
        assert len(labels) == 10
        assert any(labels.values()) and not all(labels.values())

    def test_corpus_builders_registry(self):
        assert set(sd.CORPUS_BUILDERS) == {"ukdale", "refit", "ideal", "edf_ev", "edf_weak"}
