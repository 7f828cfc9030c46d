"""Ablation: pre-copy live-migration costs (footnote-2 future work).

The paper's Figure-4 volumes count one memory copy per migration; real
pre-copy migration amplifies that by resending dirtied pages.  This
bench quantifies the amplification and downtime across dirty rates and
link speeds, and re-runs the §3 single-site experiment with the model
enabled to show how much the paper's traffic estimate understates wire
bytes.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.cluster import (
    Datacenter,
    DatacenterConfig,
    LiveMigrationModel,
    estimate_migration,
)
from repro.traces import synthesize_catalog_traces
from repro.units import grid_days
from repro.workload import generate_vm_requests, workload_matched_to_power

from conftest import SEED, START

GIB = 2**30


def test_precopy_cost_surface(benchmark, report_writer):
    """Amplification/downtime vs dirty rate and link speed (16 GiB VM)."""

    def run():
        rows = []
        for link_gbps in (1.0, 10.0, 40.0):
            for dirty_mbps in (0, 100, 500):
                model = LiveMigrationModel(
                    link_gbps=link_gbps,
                    dirty_rate_bytes_per_s=dirty_mbps * 1e6,
                )
                estimate = estimate_migration(16 * GIB, model)
                rows.append(
                    (
                        link_gbps,
                        dirty_mbps,
                        estimate.amplification,
                        estimate.duration_s,
                        estimate.downtime_s,
                        estimate.converged,
                    )
                )
        return rows

    rows = benchmark(run)
    table = format_table(
        ["Link Gbps", "Dirty MB/s", "Amplification", "Duration s",
         "Downtime s", "Converged"],
        [
            [link, dirty, f"{amp:.2f}x", f"{dur:.1f}", f"{down:.3f}",
             str(conv)]
            for link, dirty, amp, dur, down, conv in rows
        ],
        title="Pre-copy live migration cost surface (16 GiB VM)",
    )
    report_writer("ablation_livemigration_surface", table)

    by_key = {(link, dirty): amp for link, dirty, amp, *_ in rows}
    # No dirtying -> exactly one memory copy.
    assert by_key[(10.0, 0)] == pytest.approx(1.0)
    # More dirtying -> more amplification; faster links -> less.
    assert by_key[(10.0, 500)] > by_key[(10.0, 100)] > by_key[(10.0, 0)]
    assert by_key[(40.0, 500)] < by_key[(1.0, 500)]


def test_single_site_with_migration_model(benchmark, report_writer):
    """§3 re-run: wire bytes vs the paper's one-copy estimate."""
    grid = grid_days(START, 7)
    from repro.traces import default_european_catalog

    catalog = default_european_catalog().subset(["BE-wind"])
    trace = synthesize_catalog_traces(catalog, grid, seed=SEED + 60)[
        "BE-wind"
    ]

    def run():
        totals = {}
        for label, model in (
            ("paper (one copy)", None),
            (
                "pre-copy, 100 MB/s dirty",
                LiveMigrationModel(dirty_rate_bytes_per_s=100e6),
            ),
            (
                "pre-copy, 400 MB/s dirty",
                LiveMigrationModel(dirty_rate_bytes_per_s=400e6),
            ),
        ):
            config = DatacenterConfig(migration_model=model)
            workload = workload_matched_to_power(
                float(trace.values.mean()), config.cluster.total_cores
            )
            requests = generate_vm_requests(grid, workload, seed=SEED + 61)
            result = Datacenter(config, trace).run(requests)
            totals[label] = float(result.out_gb_series().sum())
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["Traffic model", "Out-migration (GB/week)"],
        [[label, round(total)] for label, total in totals.items()],
        title="Wire bytes: paper's one-copy estimate vs pre-copy model",
    )
    report_writer("ablation_livemigration_site", table)

    assert (
        totals["pre-copy, 400 MB/s dirty"]
        > totals["pre-copy, 100 MB/s dirty"]
        > totals["paper (one copy)"]
    )
    # Amplification stays bounded (converging pre-copy, not runaway).
    assert totals["pre-copy, 400 MB/s dirty"] < 3 * totals[
        "paper (one copy)"
    ]
