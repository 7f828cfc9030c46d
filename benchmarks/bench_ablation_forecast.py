"""Ablation: how forecast quality drives the MIP's advantage.

The paper's whole §3.1 premise is that migrations are *predictable*.
This ablation scales the forecast noise (0x = clairvoyant oracle,
1x = paper-calibrated, 3x = badly degraded) and measures the realized
total migration overhead of the full-horizon MIP.  With perfect
forecasts the MIP should do best; as noise grows its plans degrade
toward (but should not catastrophically exceed) the greedy baseline.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.forecast import HorizonNoise, NoisyOracleForecaster
from repro.sched import GreedyScheduler, MIPScheduler, problem_from_forecasts
from repro.sim import execute_placement
from repro.traces import synthesize_catalog_traces
from repro.workload import generate_applications

from conftest import SEED

NOISE_SCALES = (0.0, 1.0, 3.0)


def test_ablation_forecast_quality(
    benchmark, catalog, hourly_week_grid, report_writer
):
    trio = catalog.subset(["NO-solar", "UK-wind", "PT-wind"])
    traces = synthesize_catalog_traces(
        trio, hourly_week_grid, seed=SEED + 20
    )
    total_cores = {name: 28000 for name in traces}
    apps = generate_applications(
        hourly_week_grid, 220, seed=SEED + 21,
        mean_vm_count=40, mean_duration_days=2.5,
    )
    actual = {
        name: np.floor(traces[name].values * total_cores[name])
        for name in traces
    }

    def run():
        totals = {}
        for scale in NOISE_SCALES:
            noise = HorizonNoise(scale=0.069 * scale) if scale else (
                HorizonNoise(scale=0.0)
            )
            forecaster = NoisyOracleForecaster(noise=noise, seed=SEED)
            problem = problem_from_forecasts(
                hourly_week_grid, traces, total_cores, apps, forecaster
            )
            placement = MIPScheduler(time_limit_s=60.0).schedule(problem)
            execution = execute_placement(problem, placement, actual)
            totals[scale] = execution.total_transfer_gb()
        # Greedy reference with paper-calibrated forecasts.
        problem = problem_from_forecasts(
            hourly_week_grid, traces, total_cores, apps,
            NoisyOracleForecaster(seed=SEED),
        )
        greedy = GreedyScheduler().schedule(problem)
        totals["greedy"] = execute_placement(
            problem, greedy, actual
        ).total_transfer_gb()
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"MIP, {scale}x noise", round(totals[scale])]
        for scale in NOISE_SCALES
    ] + [["Greedy (1x noise)", round(totals["greedy"])]]
    table = format_table(
        ["Configuration", "Realized total (GB)"],
        rows,
        title="Ablation: forecast quality vs realized migration overhead",
    )
    report_writer("ablation_forecast_quality", table)

    # Clairvoyant forecasts must not do worse than heavily-degraded
    # ones, and even a 3x-noise MIP should beat no-lookahead greedy.
    assert totals[0.0] <= totals[3.0] * 1.05
    assert totals[3.0] < totals["greedy"]
