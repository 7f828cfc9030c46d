"""Tests for the forecast subpackage."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ForecastError
from repro.forecast import (
    ClimatologyForecaster,
    Forecast,
    HorizonNoise,
    NoisyOracleForecaster,
    PersistenceForecaster,
    horizon_mape_profile,
    mae,
    mape,
    paper_calibrated_noise,
    rmse,
    smape,
)
from repro.traces import synthesize_solar, synthesize_wind
from repro.units import grid_days


@pytest.fixture(scope="module")
def solar_trace():
    return synthesize_solar(grid_days(datetime(2020, 4, 1), 60), seed=21)


@pytest.fixture(scope="module")
def wind_trace():
    return synthesize_wind(grid_days(datetime(2020, 4, 1), 60), seed=22)


class TestForecastContainer:
    def test_valid(self, solar_trace):
        grid = solar_trace.grid.subgrid(10, 4)
        forecast = Forecast(grid, np.zeros(4), 10, "s")
        assert len(forecast) == 4
        assert forecast.horizon_steps(0) == 1
        assert forecast.horizon_steps(3) == 4

    def test_shape_mismatch_rejected(self, solar_trace):
        grid = solar_trace.grid.subgrid(0, 4)
        with pytest.raises(ForecastError):
            Forecast(grid, np.zeros(3), 0)

    def test_negative_values_rejected(self, solar_trace):
        grid = solar_trace.grid.subgrid(0, 2)
        with pytest.raises(ForecastError):
            Forecast(grid, np.array([0.1, -0.1]), 0)

    def test_negative_issue_rejected(self, solar_trace):
        grid = solar_trace.grid.subgrid(0, 2)
        with pytest.raises(ForecastError):
            Forecast(grid, np.zeros(2), -1)

    def test_horizon_out_of_window(self, solar_trace):
        grid = solar_trace.grid.subgrid(0, 2)
        forecast = Forecast(grid, np.zeros(2), 0)
        with pytest.raises(ForecastError):
            forecast.horizon_steps(2)

    def test_power_mw(self, solar_trace):
        grid = solar_trace.grid.subgrid(0, 2)
        forecast = Forecast(grid, np.array([0.5, 1.0]), 0)
        np.testing.assert_allclose(forecast.power_mw(400), [200.0, 400.0])
        with pytest.raises(ForecastError):
            forecast.power_mw(0)


class TestNoisyOracle:
    def test_window_bounds_checked(self, solar_trace):
        model = NoisyOracleForecaster(seed=1)
        with pytest.raises(ForecastError):
            model.forecast(solar_trace, len(solar_trace) - 5, 10)
        with pytest.raises(ForecastError):
            model.forecast(solar_trace, 0, 0)
        with pytest.raises(ForecastError):
            model.forecast(solar_trace, -1, 10)

    def test_deterministic_per_issue(self, solar_trace):
        model = NoisyOracleForecaster(seed=1)
        a = model.forecast(solar_trace, 100, 96)
        b = model.forecast(solar_trace, 100, 96)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_issues_differ(self, wind_trace):
        model = NoisyOracleForecaster(seed=1)
        a = model.forecast(wind_trace, 100, 96)
        b = model.forecast(wind_trace, 101, 96)
        assert not np.array_equal(a.values[1:], b.values[:-1])

    def test_zero_actual_stays_zero(self, solar_trace):
        # Solar nights must be forecast as exactly zero.
        model = NoisyOracleForecaster(seed=1)
        forecast = model.forecast(solar_trace, 0, 96)
        actual = solar_trace.values[:96]
        assert np.all(forecast.values[actual == 0.0] == 0.0)

    def test_error_grows_with_horizon(self, wind_trace):
        model = NoisyOracleForecaster(seed=3)
        horizons = {"3h": 12, "day": 96, "week": 96 * 7}
        profile = horizon_mape_profile(model, wind_trace, horizons, 48)
        assert profile["3h"] < profile["day"] < profile["week"]

    def test_paper_mape_bands(self, solar_trace, wind_trace):
        # Paper Fig 5: 3h 8.5-9%, day-ahead 18-25%, week 44-75%.
        model = NoisyOracleForecaster(seed=9)
        horizons = {"3h": 12, "day": 96, "week": 96 * 7}
        for trace in (solar_trace, wind_trace):
            profile = horizon_mape_profile(model, trace, horizons, 24)
            assert 0.05 < profile["3h"] < 0.14
            assert 0.14 < profile["day"] < 0.32
            assert 0.35 < profile["week"] < 0.85

    def test_values_stay_normalized(self, wind_trace):
        model = NoisyOracleForecaster(seed=4)
        forecast = model.forecast(wind_trace, 0, 96 * 7)
        assert forecast.values.min() >= 0.0
        assert forecast.values.max() <= 1.0


class TestHorizonNoise:
    def test_sigma_monotone(self):
        noise = paper_calibrated_noise()
        hours = np.array([1.0, 3.0, 24.0, 168.0])
        sigma = noise.sigma(hours)
        assert np.all(np.diff(sigma) > 0)

    def test_sigma_capped(self):
        noise = HorizonNoise(scale=1.0, exponent=1.0, max_sigma=0.5)
        assert noise.sigma(np.array([100.0]))[0] == 0.5

    def test_validation(self):
        with pytest.raises(ForecastError):
            HorizonNoise(scale=-1.0)
        with pytest.raises(ForecastError):
            HorizonNoise(correlation=1.0)


class TestBaselines:
    def test_persistence_holds_last_value(self, wind_trace):
        model = PersistenceForecaster()
        forecast = model.forecast(wind_trace, 50, 10)
        np.testing.assert_allclose(forecast.values, wind_trace.values[49])

    def test_persistence_at_origin_is_zero(self, wind_trace):
        forecast = PersistenceForecaster().forecast(wind_trace, 0, 5)
        np.testing.assert_allclose(forecast.values, 0.0)

    def test_climatology_learns_diurnal_shape(self, solar_trace):
        model = ClimatologyForecaster()
        issue = 30 * 96
        forecast = model.forecast(solar_trace, issue, 96)
        hours = forecast.grid.hour_of_day()
        # Climatology should predict zero at night, positive at noon.
        assert np.all(forecast.values[(hours < 3)] == 0.0)
        assert forecast.values[(hours > 11) & (hours < 13)].max() > 0.1

    def test_climatology_no_history_predicts_zero(self, solar_trace):
        forecast = ClimatologyForecaster().forecast(solar_trace, 0, 10)
        np.testing.assert_allclose(forecast.values, 0.0)

    def test_climatology_history_days_limit(self, solar_trace):
        short = ClimatologyForecaster(history_days=3)
        long = ClimatologyForecaster()
        issue = 40 * 96
        a = short.forecast(solar_trace, issue, 96)
        b = long.forecast(solar_trace, issue, 96)
        assert not np.array_equal(a.values, b.values)

    def test_climatology_validation(self):
        with pytest.raises(ForecastError):
            ClimatologyForecaster(history_days=0)

    def test_persistence_beats_climatology_short_horizon(self, wind_trace):
        horizons = {"1step": 1}
        persistence = horizon_mape_profile(
            PersistenceForecaster(), wind_trace, horizons, 24
        )
        climatology = horizon_mape_profile(
            ClimatologyForecaster(), wind_trace, horizons, 24
        )
        assert persistence["1step"] < climatology["1step"]


class TestMetrics:
    def test_mae_rmse_basics(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([1.0, 2.0, 5.0])
        assert mae(actual, predicted) == pytest.approx(2.0 / 3.0)
        assert rmse(actual, predicted) == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_mape_excludes_small_actuals(self):
        actual = np.array([0.0, 0.01, 0.5])
        predicted = np.array([1.0, 1.0, 0.25])
        # Only the 0.5 sample clears the default 0.05 floor.
        assert mape(actual, predicted) == pytest.approx(0.5)

    def test_mape_all_below_floor_is_nan(self):
        assert np.isnan(mape(np.array([0.0]), np.array([0.5])))

    def test_smape_zero_on_perfect_zero(self):
        assert smape(np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 0.0

    def test_smape_bounded(self):
        actual = np.array([0.0, 1.0])
        predicted = np.array([1.0, 0.0])
        assert smape(actual, predicted) == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ForecastError):
            mae(np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ForecastError):
            rmse(np.zeros(0), np.zeros(0))

    def test_profile_validation(self, wind_trace):
        model = PersistenceForecaster()
        with pytest.raises(ForecastError):
            horizon_mape_profile(model, wind_trace, {"bad": 0})
        with pytest.raises(ForecastError):
            horizon_mape_profile(model, wind_trace, {"h": 1}, issue_every=0)

    def test_profile_horizon_longer_than_trace(self, wind_trace):
        model = PersistenceForecaster()
        result = horizon_mape_profile(
            model, wind_trace, {"huge": len(wind_trace) + 1}
        )
        assert np.isnan(result["huge"])

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=30)
    def test_perfect_forecast_zero_error(self, values):
        arr = np.array(values)
        assert mae(arr, arr) == 0.0
        assert rmse(arr, arr) == 0.0
        assert mape(arr, arr) == 0.0
        assert smape(arr, arr) == 0.0
