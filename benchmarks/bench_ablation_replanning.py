"""Ablation: replanning as the environment changes (§3.1).

"As the environment changes, e.g., weather predictions update or
applications complete and resources free up, we need to rerun the
optimization."  A naive re-solve ignores where VMs already sit and may
shuffle everything for marginal predicted gains; the switching-cost
term makes moves pay for themselves.  This bench replans mid-horizon
with refreshed forecasts at different switch weights and measures
(a) how many VMs move and (b) the realized total overhead.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.forecast import NoisyOracleForecaster
from repro.sched import MIPScheduler, problem_from_forecasts
from repro.sim import execute_placement
from repro.traces import synthesize_catalog_traces
from repro.workload import generate_applications

from conftest import SEED

SWITCH_WEIGHTS = (0.0, 1.0, 10.0)


def test_replanning_switch_weight(
    benchmark, catalog, hourly_week_grid, report_writer
):
    trio = catalog.subset(["NO-solar", "UK-wind", "PT-wind"])
    traces = synthesize_catalog_traces(
        trio, hourly_week_grid, seed=SEED + 95
    )
    total_cores = {name: 28000 for name in traces}
    apps = generate_applications(
        hourly_week_grid, 100, seed=SEED + 96,
        mean_vm_count=30, mean_duration_days=3.0,
        arrival_window_fraction=0.2,
    )
    # Initial plan at t=0 with the week-ahead forecast.
    initial_forecaster = NoisyOracleForecaster(seed=SEED + 97)
    initial_problem = problem_from_forecasts(
        hourly_week_grid, traces, total_cores, apps, initial_forecaster
    )
    initial = MIPScheduler(time_limit_s=60.0).schedule(initial_problem)
    # Mid-week the forecasts refresh (different noise realization).
    refreshed_forecaster = NoisyOracleForecaster(seed=SEED + 98)
    refreshed_problem = problem_from_forecasts(
        hourly_week_grid, traces, total_cores, apps,
        refreshed_forecaster,
    )
    actual = {
        name: np.floor(traces[name].values * total_cores[name])
        for name in traces
    }

    def moved_vms(before, after):
        moves = 0
        for app in apps:
            prev = before.assignment.get(app.app_id, {})
            new = after.assignment.get(app.app_id, {})
            for name in set(prev) | set(new):
                delta = new.get(name, 0) - prev.get(name, 0)
                if delta > 0:
                    moves += delta
        return moves

    def run():
        rows = {}
        for weight in SWITCH_WEIGHTS:
            replanned = MIPScheduler(time_limit_s=60.0).schedule(
                refreshed_problem,
                previous_assignment=initial.assignment,
                switch_weight=weight,
            )
            execution = execute_placement(
                refreshed_problem, replanned, actual
            )
            rows[weight] = (
                moved_vms(initial, replanned),
                execution.total_transfer_gb(),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["Switch weight", "VMs moved by replan", "Realized total (GB)"],
        [
            [weight, moved, round(total)]
            for weight, (moved, total) in rows.items()
        ],
        title="Replanning under refreshed forecasts",
    )
    report_writer("ablation_replanning", table)

    moves = [rows[w][0] for w in SWITCH_WEIGHTS]
    # Switching costs monotonically damp the reshuffle.
    assert moves[0] >= moves[1] >= moves[2]
    # And the free-for-all replan moves substantially more than the
    # strongly-damped one.
    assert moves[0] > moves[2]
