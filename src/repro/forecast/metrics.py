"""Forecast accuracy metrics and the per-horizon evaluation harness.

The paper quotes MAPE (mean absolute percentage error) per lead time;
renewable MAPE is conventionally computed only over samples with
meaningful actual production (zero-production slots make percentage
error undefined), and we follow that convention with an explicit
``min_actual`` floor.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ForecastError
from ..traces import PowerTrace
from .base import Forecaster


def _validate_pair(actual: np.ndarray, predicted: np.ndarray) -> tuple[
    np.ndarray, np.ndarray
]:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ForecastError(
            f"shape mismatch: actual {actual.shape} vs predicted"
            f" {predicted.shape}"
        )
    if actual.size == 0:
        raise ForecastError("cannot score an empty forecast")
    return actual, predicted


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute error."""
    actual, predicted = _validate_pair(actual, predicted)
    return float(np.mean(np.abs(predicted - actual)))


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error."""
    actual, predicted = _validate_pair(actual, predicted)
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def mape(
    actual: np.ndarray, predicted: np.ndarray, min_actual: float = 0.05
) -> float:
    """Mean absolute percentage error over productive samples.

    Samples with ``actual < min_actual`` are excluded — percentage error
    against (near-)zero production is undefined and would swamp the
    metric.  Returns ``nan`` if no sample clears the floor.
    """
    actual, predicted = _validate_pair(actual, predicted)
    mask = actual >= min_actual
    if not np.any(mask):
        return float("nan")
    return float(
        np.mean(np.abs(predicted[mask] - actual[mask]) / actual[mask])
    )


def smape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Symmetric MAPE: |p - a| / ((|a| + |p|) / 2), zero-safe.

    Samples where both actual and predicted are zero contribute zero
    error (a correct "no production" call).
    """
    actual, predicted = _validate_pair(actual, predicted)
    denom = (np.abs(actual) + np.abs(predicted)) / 2.0
    diff = np.abs(predicted - actual)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, diff / denom, 0.0)
    return float(np.mean(ratio))


def horizon_mape_profile(
    forecaster: Forecaster,
    trace: PowerTrace,
    horizons_steps: Mapping[str, int],
    issue_every: int = 96,
    min_actual: float = 0.05,
) -> dict[str, float]:
    """MAPE of a forecaster at several lead times, averaged over issues.

    For each named horizon, forecasts are issued every ``issue_every``
    steps across the trace; the sample *at* the horizon lead time from
    each issue is scored against truth, and the MAPE over all issues is
    reported.  This mirrors how the ELIA 3h/day/week-ahead numbers the
    paper quotes are computed.

    Args:
        forecaster: Model under evaluation.
        trace: Ground-truth trace.
        horizons_steps: Mapping of label -> lead time in steps, e.g.
            ``{"3h": 12, "day": 96, "week": 672}`` at 15-min resolution.
        issue_every: Stride between forecast issue points.
        min_actual: Productive-sample floor for MAPE.

    Returns:
        Mapping of horizon label -> MAPE (nan if no productive samples).
    """
    if issue_every <= 0:
        raise ForecastError(f"issue_every must be positive: {issue_every}")
    results: dict[str, float] = {}
    for label, horizon in horizons_steps.items():
        if horizon <= 0:
            raise ForecastError(f"horizon {label!r} must be positive")
        actuals: list[float] = []
        predictions: list[float] = []
        issue = 0
        while issue + horizon <= len(trace):
            forecast = forecaster.forecast(trace, issue, horizon)
            actuals.append(trace.values[issue + horizon - 1])
            predictions.append(forecast.values[horizon - 1])
            issue += issue_every
        if not actuals:
            results[label] = float("nan")
            continue
        results[label] = mape(
            np.array(actuals), np.array(predictions), min_actual
        )
    return results
