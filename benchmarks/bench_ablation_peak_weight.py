"""Ablation: the O2 peak-objective weight in MIP-peak.

Sweeping the weight from 0 (pure O1) upward should trade a little
total overhead for a much lower peak — the paper's MIP vs MIP-peak
contrast, as a dial rather than two points.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.forecast import NoisyOracleForecaster
from repro.sched import MIPScheduler, problem_from_forecasts
from repro.sim import execute_placement, summarize_transfers
from repro.traces import synthesize_catalog_traces
from repro.workload import generate_applications

from conftest import SEED

WEIGHTS = (0.0, 10.0, 100.0)


def test_ablation_peak_weight(
    benchmark, catalog, hourly_week_grid, report_writer
):
    trio = catalog.subset(["NO-solar", "UK-wind", "PT-wind"])
    traces = synthesize_catalog_traces(
        trio, hourly_week_grid, seed=SEED + 50
    )
    total_cores = {name: 28000 for name in traces}
    apps = generate_applications(
        hourly_week_grid, 120, seed=SEED + 51,
        mean_vm_count=40, mean_duration_days=2.5,
    )
    forecaster = NoisyOracleForecaster(seed=SEED + 52)
    problem = problem_from_forecasts(
        hourly_week_grid, traces, total_cores, apps, forecaster
    )
    actual = {
        name: np.floor(traces[name].values * total_cores[name])
        for name in traces
    }

    def run():
        summaries = {}
        for weight in WEIGHTS:
            scheduler = MIPScheduler(
                peak_weight=weight, time_limit_s=60.0
            )
            placement = scheduler.schedule(problem)
            execution = execute_placement(problem, placement, actual)
            summaries[weight] = summarize_transfers(
                f"w={weight}", execution.total_transfer_series()
            )
        return summaries

    summaries = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            weight,
            round(s.total_gb),
            round(s.peak_gb),
            round(s.std_gb),
        ]
        for weight, s in summaries.items()
    ]
    table = format_table(
        ["Peak weight", "Total (GB)", "Peak (GB)", "Std (GB)"],
        rows,
        title="Ablation: O2 weight trades total for peak",
    )
    report_writer("ablation_peak_weight", table)

    # Heavier peak weight must not raise the realized peak.
    peaks = [summaries[w].peak_gb for w in WEIGHTS]
    assert peaks[-1] <= peaks[0] + 1e-6
    # The total-overhead price of peak flattening stays modest (the
    # paper reports ~1% between MIP and MIP-peak).
    totals = [summaries[w].total_gb for w in WEIGHTS]
    assert totals[-1] <= 2.0 * totals[0]
