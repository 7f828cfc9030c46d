"""Ablation: the admission utilization cap (70% in the paper).

The headroom between admitted load and powered capacity is what lets
minor power dips be absorbed by powering down unallocated cores.
Sweeping the cap from 50% to 95% should show the silent-change fraction
falling and migration traffic rising as headroom shrinks.
"""

from __future__ import annotations


from repro.analysis import format_table
from repro.cluster import Datacenter, DatacenterConfig
from repro.traces import synthesize_catalog_traces
from repro.units import grid_days
from repro.workload import generate_vm_requests, workload_matched_to_power

from conftest import SEED, START

CAPS = (0.5, 0.7, 0.95)


def test_ablation_utilization_cap(benchmark, catalog, report_writer):
    grid = grid_days(START, 14)
    traces = synthesize_catalog_traces(
        catalog.subset(["BE-wind"]), grid, seed=SEED + 30
    )
    trace = traces["BE-wind"]

    def run():
        results = {}
        for cap in CAPS:
            config = DatacenterConfig(admission_utilization=cap)
            workload = workload_matched_to_power(
                float(trace.values.mean()),
                config.cluster.total_cores,
                utilization=cap,
            )
            requests = generate_vm_requests(
                grid, workload, seed=SEED + 31
            )
            result = Datacenter(config, trace).run(requests)
            results[cap] = (
                result.power_changes_without_migration_fraction(),
                result.out_gb_series().sum()
                + result.in_gb_series().sum(),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{int(cap * 100)}%", f"{100 * silent:.0f}%", round(total)]
        for cap, (silent, total) in results.items()
    ]
    table = format_table(
        ["Admission cap", "Silent power changes", "Total transfer (GB)"],
        rows,
        title="Ablation: utilization headroom vs migration absorption",
    )
    report_writer("ablation_utilization", table)

    # More headroom (lower cap) -> more dips absorbed silently.
    silent = {cap: results[cap][0] for cap in CAPS}
    assert silent[0.5] >= silent[0.95]
    # And at the paper's 70%, most power changes stay silent.
    assert silent[0.7] > 0.6
