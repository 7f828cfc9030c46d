"""Figure 2: quantifying solar and wind variability (§2.2).

Fig 2a — a 4-day sample showing solar's diurnal pattern with overcast
vs. sunny days and spiky wind; Fig 2b — the 1-year CDF with solar
>50% zeros and tail ratios of ~4x (solar) / ~2x (wind) at p99/p75.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_cdf_points, format_series_sample
from repro.traces.weather import default_solar_regimes
from repro.traces import synthesize_solar
from repro.units import grid_days


def _find_contrasting_days(trace):
    """Locate an overcast day followed (within the trace) by a much
    sunnier one, the Fig-2a contrast (3.5% vs 77% peaks)."""
    per_day = trace.grid.steps_per_day()
    days = trace.values.reshape(-1, per_day)
    peaks = days.max(axis=1)
    best = None
    for d in range(len(peaks) - 1):
        contrast = peaks[d + 1] - peaks[d]
        if best is None or contrast > best[1]:
            best = (d, contrast)
    return best[0], peaks


def test_fig2a_time_series(benchmark, year_traces, report_writer):
    """Fig 2a: 4-day solar/wind sample with day-type contrast."""
    solar = year_traces["BE-solar"]
    wind = year_traces["BE-wind"]

    def run():
        day, peaks = _find_contrasting_days(solar)
        return day, peaks

    day, peaks = benchmark(run)
    window_solar = solar.slice_days(day, 4)
    window_wind = wind.slice_days(day, 4)

    lines = [
        "Figure 2a: 4-day normalized power sample (16 evenly spaced"
        " points per trace)",
        f"window: days {day}..{day + 4} of the year",
        "solar day peaks in window: "
        + ", ".join(f"{p:.2f}" for p in peaks[day : day + 4]),
        "solar:",
        format_series_sample(window_solar.values, 16),
        "wind:",
        format_series_sample(window_wind.values, 16),
    ]
    report_writer("fig2a_variability_sample", "\n".join(lines))

    # Shape claims: a dim day next to a bright day exists somewhere in
    # the year (paper saw 3.5% vs 77%), and wind stays off the floor.
    assert peaks[day] < 0.45
    assert peaks[day + 1] > 0.60
    assert window_wind.values.min() >= 0.0
    # Solar zero at night inside the window.
    hours = window_solar.grid.hour_of_day()
    assert np.all(window_solar.values[hours < 3] == 0.0)


def test_fig2b_cdf(benchmark, year_traces, report_writer):
    """Fig 2b: 1-year CDF of normalized generation."""
    solar = year_traces["BE-solar"]
    wind = year_traces["BE-wind"]

    def run():
        return {
            "solar": (
                solar.zero_fraction(),
                solar.percentile(50),
                solar.tail_ratio(99, 75),
            ),
            "wind": (
                wind.zero_fraction(),
                wind.percentile(50),
                wind.tail_ratio(99, 75),
            ),
        }

    stats = benchmark(run)
    lines = ["Figure 2b: 1-year generation CDF"]
    for kind, trace in (("solar", solar), ("wind", wind)):
        zero, median, tail = stats[kind]
        lines.append(
            f"{kind}: zero-fraction {zero:.2f}, median {median:.2f},"
            f" p99/p75 {tail:.2f}"
        )
        lines.append(format_cdf_points(trace.values))
    report_writer("fig2b_generation_cdf", "\n".join(lines))

    solar_zero, solar_median, solar_tail = stats["solar"]
    wind_zero, wind_median, wind_tail = stats["wind"]
    # Paper: >50% of solar samples are zero (nights).
    assert solar_zero > 0.45
    # Paper: wind median reaches at most ~20% of peak capacity.
    assert wind_median < 0.30
    # Paper: p99/p75 of ~4x for solar, ~2x for wind.
    assert 3.0 < solar_tail < 7.0
    assert 1.5 < wind_tail < 3.5
    # Wind rarely touches zero, unlike solar.
    assert wind_zero < solar_zero / 3


def test_fig2a_seasonality(benchmark, year_traces, report_writer):
    """§2.2: winter solar peaks ~75% below summer at these latitudes."""
    solar = year_traces["BE-solar"]

    def run():
        per_day = solar.grid.steps_per_day()
        daily_peaks = solar.values.reshape(-1, per_day).max(axis=1)
        # January and late June windows.
        winter = float(np.percentile(daily_peaks[:31], 90))
        summer = float(np.percentile(daily_peaks[160:191], 90))
        return winter, summer

    winter, summer = benchmark(run)
    report_writer(
        "fig2a_seasonality",
        f"solar p90 daily peak: winter {winter:.2f} vs summer"
        f" {summer:.2f} ({100 * (1 - winter / summer):.0f}% lower;"
        " paper: ~75% less in winter)",
    )
    assert winter < 0.55 * summer


def test_fig2a_day_types(benchmark, report_writer):
    """The three solar day types (sunny / variable / overcast) that
    drive Fig 2a's qualitative contrast.  Uses an early-summer day, as
    the paper's sample window does (May 2020): peak output is near the
    seasonal maximum, so the day-type contrast is undiluted."""
    from datetime import datetime

    grid = grid_days(datetime(2015, 6, 1), 1)
    model = default_solar_regimes()

    def run():
        peaks = {}
        for name in model.names:
            index = model.names.index(name)
            trace = synthesize_solar(
                grid, seed=7, regime_indices=np.array([index])
            )
            peaks[name] = float(trace.values.max())
        return peaks

    peaks = benchmark(run)
    lines = ["Figure 2a day types: peak normalized output per regime"]
    for name, peak in peaks.items():
        lines.append(f"  {name}: {peak:.3f}")
    report_writer("fig2a_day_types", "\n".join(lines))

    assert peaks["overcast"] < 0.2       # paper: ~3.5%-ish peaks
    assert peaks["sunny"] > 0.55         # paper: ~77% peak
    assert peaks["overcast"] < peaks["variable"] <= peaks["sunny"] + 0.25
