"""Tests for the DVFS power-dip absorber."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.dvfs import (
    FrequencyScaling,
    absorb_step,
    dvfs_absorption_summary,
    dvfs_displacement_series,
)
from repro.errors import ConfigurationError
from repro.traces import synthesize_wind
from repro.units import grid_days


class TestFrequencyScaling:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FrequencyScaling(min_frequency=0.0)
        with pytest.raises(ConfigurationError):
            FrequencyScaling(min_frequency=1.5)
        with pytest.raises(ConfigurationError):
            FrequencyScaling(power_exponent=0.5)

    def test_cubic_law(self):
        scaling = FrequencyScaling(power_exponent=3.0)
        assert scaling.power_at(1.0) == 1.0
        assert scaling.power_at(0.5) == pytest.approx(0.125)
        assert scaling.frequency_for_power(0.125) == pytest.approx(0.5)

    def test_power_at_validation(self):
        with pytest.raises(ConfigurationError):
            FrequencyScaling().power_at(1.5)
        with pytest.raises(ConfigurationError):
            FrequencyScaling().frequency_for_power(-0.1)

    def test_twenty_percent_cut_costs_seven_percent_speed(self):
        # The classic DVFS selling point with the cubic law.
        scaling = FrequencyScaling(power_exponent=3.0)
        frequency = scaling.frequency_for_power(0.8)
        slowdown = 1.0 / frequency - 1.0
        assert slowdown == pytest.approx(0.077, abs=0.005)


class TestAbsorbStep:
    def test_no_dip_no_action(self):
        step = absorb_step(0.9, 0.7, FrequencyScaling())
        assert step.frequency == 1.0
        assert step.displaced_fraction == 0.0
        assert step.slowdown == 0.0

    def test_zero_load_no_action(self):
        step = absorb_step(0.0, 0.0, FrequencyScaling())
        assert step.displaced_fraction == 0.0

    def test_shallow_dip_fully_absorbed(self):
        # Load 0.7, power 0.6: without DVFS 0.1 displaced; with the
        # cubic law f = (6/7)^(1/3) ~ 0.95 >= 0.6 floor -> all absorbed.
        step = absorb_step(0.6, 0.7, FrequencyScaling())
        assert step.displaced_fraction == 0.0
        assert 0.9 < step.frequency < 1.0
        assert step.slowdown > 0.0

    def test_deep_dip_partially_absorbed(self):
        # Load 0.7, power 0.05: at the 0.6 floor each core draws
        # 0.6^3 = 0.216 -> powered = 0.05/0.216 ~ 0.23 of the cluster.
        scaling = FrequencyScaling(min_frequency=0.6)
        step = absorb_step(0.05, 0.7, scaling)
        assert step.frequency == 0.6
        assert step.displaced_fraction == pytest.approx(
            0.7 - 0.05 / 0.6**3
        )
        assert 0.0 < step.powered_fraction < 1.0

    def test_displacement_never_worse_than_baseline(self):
        scaling = FrequencyScaling()
        for power in np.linspace(0.0, 1.0, 21):
            for load in np.linspace(0.0, 1.0, 11):
                step = absorb_step(float(power), float(load), scaling)
                baseline = max(0.0, load - power)
                assert step.displaced_fraction <= baseline + 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            absorb_step(1.5, 0.5, FrequencyScaling())
        with pytest.raises(ConfigurationError):
            absorb_step(0.5, 1.5, FrequencyScaling())

    @given(
        power=st.floats(min_value=0.0, max_value=1.0),
        load=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_step_invariants(self, power, load):
        step = absorb_step(power, load, FrequencyScaling())
        assert 0.0 < step.frequency <= 1.0
        assert 0.0 <= step.powered_fraction <= 1.0 + 1e-9
        assert 0.0 <= step.displaced_fraction <= max(load, 1e-9)
        assert step.slowdown >= 0.0


class TestSeriesAndSummary:
    def test_series_shapes(self):
        grid = grid_days(datetime(2020, 5, 1), 3)
        trace = synthesize_wind(grid, seed=3)
        without, with_dvfs, slowdown = dvfs_displacement_series(
            trace, 0.5
        )
        assert len(without) == len(trace)
        assert np.all(with_dvfs <= without + 1e-9)
        assert np.all(slowdown >= 0.0)

    def test_summary_absorbs_meaningfully(self):
        grid = grid_days(datetime(2020, 5, 1), 7)
        trace = synthesize_wind(grid, seed=3)
        summary = dvfs_absorption_summary(trace, 0.4)
        assert 0.0 < summary["absorbed_fraction"] <= 1.0
        assert summary["displaced_core_steps_with"] <= (
            summary["displaced_core_steps_without"]
        )
        # Slowdown paid stays bounded by the frequency floor.
        assert summary["mean_slowdown_while_absorbing"] <= 1.0 / 0.6 - 1.0

    def test_summary_no_dips(self):
        grid = grid_days(datetime(2020, 5, 1), 1)
        trace = synthesize_wind(grid, seed=3)
        summary = dvfs_absorption_summary(trace, 0.0)
        assert summary["absorbed_fraction"] == 1.0
        assert summary["mean_slowdown_while_absorbing"] == 0.0
