"""Household simulator: schedules appliance runs and sums them into an
aggregate smart-meter signal (Eq. 1 of the paper: x(t) = Σ a_j(t) + ε(t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .appliances import APPLIANCES, ApplianceSpec, get_spec
from .signatures import generate_activation


@dataclass
class HouseholdTrace:
    """Simulated recordings for one household.

    Attributes:
        house_id: identifier within its corpus.
        dt_seconds: sampling period of every series.
        aggregate: main-meter power (Watts), may contain NaN gaps.
        appliance_power: ground-truth per-appliance power (Watts), only for
            submetered appliances.
        possession: appliance name -> whether the household owns it (the
            survey answer used by the possession-only pipeline).
    """

    house_id: str
    dt_seconds: float
    aggregate: np.ndarray
    appliance_power: Dict[str, np.ndarray] = field(default_factory=dict)
    possession: Dict[str, bool] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.aggregate)

    @property
    def duration_days(self) -> float:
        return self.n_samples * self.dt_seconds / 86400.0

    def status(self, appliance: str) -> np.ndarray:
        """Binary ON/OFF ground truth using the Table-I threshold."""
        spec = get_spec(appliance)
        power = self.appliance_power.get(appliance)
        if power is None:
            raise KeyError(f"house {self.house_id} has no submeter for {appliance}")
        return (power >= spec.on_threshold_watts).astype(np.float32)


def _sample_event_starts(
    spec: ApplianceSpec, n: int, dt_seconds: float, rng: np.random.Generator, usage_scale: float
) -> List[int]:
    """Draw activation start indices from the spec's daily-rate/hour model."""
    samples_per_day = 86400.0 / dt_seconds
    days = n / samples_per_day
    count = rng.poisson(max(spec.events_per_day * usage_scale, 0.0) * days)
    if count == 0:
        return []
    hour_weights = np.asarray(spec.hour_weights, dtype=np.float64)
    hour_probs = hour_weights / hour_weights.sum()
    # The CDF ``rng.choice(24, p=hour_probs)`` builds on every call, built
    # once: the draw below reads the same double and so the same hour.
    hour_cdf = hour_probs.cumsum()
    hour_cdf /= hour_cdf[-1]
    starts = []
    for _ in range(count):
        day = rng.integers(0, max(int(np.ceil(days)), 1))
        hour = int(hour_cdf.searchsorted(rng.random(), side="right"))
        minute = rng.uniform(0.0, 60.0)
        t_seconds = day * 86400.0 + hour * 3600.0 + minute * 60.0
        index = int(t_seconds / dt_seconds)
        if index < n:
            starts.append(index)
    return sorted(starts)


def simulate_appliance_channel(
    appliance: str,
    n: int,
    dt_seconds: float,
    rng: np.random.Generator,
    usage_scale: float = 1.0,
) -> np.ndarray:
    """Simulate one appliance's power channel over ``n`` samples."""
    spec = get_spec(appliance)
    power = np.zeros(n, dtype=np.float64)
    occupied_until = -1
    for start in _sample_event_starts(spec, n, dt_seconds, rng, usage_scale):
        if start <= occupied_until:
            continue  # appliances do not overlap with themselves
        duration = rng.uniform(*spec.duration_minutes)
        trace = generate_activation(appliance, duration, dt_seconds, rng)
        stop = min(start + len(trace), n)
        power[start:stop] = np.maximum(power[start:stop], trace[: stop - start])
        occupied_until = stop
    return power


def simulate_base_load(n: int, dt_seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Always-on base load: standby + lighting with an evening bump."""
    level = rng.uniform(60.0, 180.0)
    t = np.arange(n) * dt_seconds
    hour = (t / 3600.0) % 24.0
    evening = 80.0 * np.exp(-0.5 * ((hour - 20.0) / 2.5) ** 2)  # lighting/TV
    drift = 20.0 * np.sin(2.0 * np.pi * t / (86400.0 * 7.0) + rng.uniform(0, 6.28))
    return level + evening + drift


@dataclass
class HouseholdConfig:
    """Configuration for simulating one household."""

    house_id: str
    owned: Dict[str, float]  # appliance -> usage_scale (0 disables)
    submetered: Sequence[str]  # appliances with ground-truth channels
    days: float = 30.0
    dt_seconds: float = 60.0
    noise_watts: float = 20.0
    missing_rate: float = 0.0  # fraction of samples knocked out as NaN gaps
    include_fridge: bool = True


def simulate_household(config: HouseholdConfig, rng: np.random.Generator) -> HouseholdTrace:
    """Simulate one household according to ``config``.

    The aggregate is the sum of all owned appliance channels plus base load,
    fridge cycling, and Gaussian measurement noise; optional NaN gaps model
    transmission losses (repaired later by bounded forward-fill, as in the
    paper's preprocessing).
    """
    n = int(round(config.days * 86400.0 / config.dt_seconds))
    aggregate = simulate_base_load(n, config.dt_seconds, rng)
    if config.include_fridge:
        aggregate = aggregate + simulate_appliance_channel(
            "fridge", n, config.dt_seconds, rng
        )

    channels: Dict[str, np.ndarray] = {}
    possession: Dict[str, bool] = {}
    for appliance in APPLIANCES:
        if appliance == "fridge":
            continue
        usage = config.owned.get(appliance, 0.0)
        possession[appliance] = usage > 0.0
        if usage <= 0.0:
            continue
        channel = simulate_appliance_channel(appliance, n, config.dt_seconds, rng, usage)
        aggregate = aggregate + channel
        if appliance in config.submetered:
            channels[appliance] = channel.astype(np.float32)

    aggregate = aggregate + rng.normal(0.0, config.noise_watts, n)
    aggregate = np.maximum(aggregate, 0.0).astype(np.float32)

    if config.missing_rate > 0.0:
        # Knock out short contiguous gaps rather than isolated points.
        n_gaps = int(config.missing_rate * n / 5.0)
        for _ in range(n_gaps):
            start = rng.integers(0, n)
            span = int(rng.integers(1, 10))
            aggregate[start : start + span] = np.nan

    return HouseholdTrace(
        house_id=config.house_id,
        dt_seconds=config.dt_seconds,
        aggregate=aggregate,
        appliance_power=channels,
        possession=possession,
    )
