"""Benchmarks of the fleet engine at study scale.

Not a paper figure — these gate :class:`~repro.sim.fleet.FleetEngine`,
which takes every site in turn through ``Datacenter.advance`` on the
step kernel inside one ``fleet.run`` span, against N independent
``Datacenter.run`` calls (the "looped" baseline), on the year-long
hundreds-of-sites study §3 motivates.

Every run merges its rows into ``BENCH_fleet.json`` at the repo root
(``harness.py``); CI uploads it as an artifact and fails the
bench-smoke job if the fleet engine is slower than the looped per-site
kernel runs on the 64-site year.  Every gate compares speed-normalized
medians.

Two baselines on purpose, reported side by side:

* ``speedup_vs_looped_kernel`` — against per-site ``Datacenter.run``
  calls on the step kernel: the same per-site driver over the same
  SoA kernel, already skipping idle steps, but keeping each site's
  per-VM event log, which a direct ``FleetEngine`` skips by default
  (``record_events=False``).  The fleet's win here is that event log
  and nothing else, so the margin over 1.0x is what recording the
  logs costs.  This is the hard CI gate (>= 1.0x, on medians of
  alternating passes).
* ``speedup_vs_dense_looped`` — against per-site runs of the dense
  object-model oracle that walk all 35,040 steps.  This is the
  headline >= 3x acceptance number.

A third leg times a closed-loop fleet quarter — 32 sites x 91 days
behind the battery plus threshold-priced grid of the end-to-end
``fleet-battery`` workload — against the same sites run open loop, and
gates the ratio of the two medians at :data:`CLOSED_OVER_OPEN_MAX`.
Open loop is the floor the closed loop's supply dispatch adds to, so
the ratio isolates what the closed-loop protocol costs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from harness import bench_file, fleet_site, paired, rounds
from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import YEAR_START
from repro.sim import FleetEngine
from repro.supply import SupplySpec
from repro.units import grid_days

record, write_bench_json = bench_file("BENCH_fleet.json")

#: The ``fleet-battery`` workload's stack: a 200 MWh battery plus a
#: 500 MWh grid bought only while the price is at or below $60/MWh.
FLEET_BATTERY_SUPPLY = SupplySpec(
    battery_mwh=200.0,
    grid_budget_mwh=500.0,
    price_trace="double_peak",
    carbon_trace="daily",
    grid_policy="threshold",
    price_threshold=60.0,
    mode="closed",
)

#: Timed passes per leg of the fleet-vs-looped gate.  A leg takes ~1 s
#: a pass on a contended 2-core box, so the time box alone admits the
#: three-pass minimum, whose medians read 1.06-1.37x over four runs of
#: the module against a 1.0x gate.
FLEET_GATE_PASSES = 9

#: Hard gate of the closed-loop leg: closed-loop fleet wall time over
#: the same sites' open-loop wall time, on medians.  On this instance
#: the per-site closed loop measures 2.0-2.2x and the lockstep batched
#: dispatcher it replaced measured 5.1-5.5x (2 CPUs, three runs each).
CLOSED_OVER_OPEN_MAX = 3.0


def test_fleet_vs_looped_64site_year():
    """64 sites x 1 year: fleet vs per-site kernel and dense loops.

    The CI gate lives here: the fleet engine (the same per-site driver
    and SoA kernel, without event logs) must not be slower than the
    looped per-site kernel runs, and must hold >= 3x over the dense
    loop.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [fleet_site(seed, grid, config) for seed in range(64)]

    def looped(engine: str):
        return {
            site.name: Datacenter(site.config, site.trace).run(
                site.requests, engine=engine
            )
            for site in sites
        }

    fleet_t, kernel_t = paired(
        lambda: FleetEngine(sites).run(),
        lambda: looped("event"),
        passes=FLEET_GATE_PASSES,
    )
    dense, dense_t = rounds(lambda: looped("dense"))

    # Result-identical by construction — verify before trusting times.
    fleet, kernel = FleetEngine(sites).run(), looped("event")
    for site in sites:
        assert fleet[site.name].summary_dict() == kernel[site.name].summary_dict()
        assert fleet[site.name].summary_dict() == dense[site.name].summary_dict()

    speedup_vs_kernel = kernel_t.median / fleet_t.median
    speedup_vs_dense = dense_t.median / fleet_t.median
    record(
        "fleet_64site_year",
        n_sites=len(sites),
        n_steps=grid.n,
        n_requests_per_site=len(sites[0].requests),
        fleet_s=fleet_t,
        looped_kernel_s=kernel_t,
        dense_looped_s=dense_t,
        speedup_vs_looped_kernel=speedup_vs_kernel,
        speedup_vs_dense_looped=speedup_vs_dense,
    )
    # Hard gate: both sides run the same per-site driver over the same
    # SoA kernel and only the looped runs keep event logs, so the
    # margin over 1.0x is the logs' cost and nothing else: 1.05-1.11x
    # on a 2-core box with the columnar log, against 1.30x when each
    # event was a tuple that the garbage collector tracked.  The
    # fleet's own loop must cost no more than the logs it saves.
    assert speedup_vs_kernel >= 1.0
    # Acceptance headroom vs the dense per-site reference loop.
    assert speedup_vs_dense >= 3.0


def test_fleet_500site_year():
    """The 500-site x 1-year study in one engine call (EXPERIMENTS.md
    walkthrough).  Records its wall time; no looped baseline — the
    64-site bench carries the comparison."""
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [fleet_site(seed, grid, config) for seed in range(500)]

    fleet, fleet_t = rounds(lambda: FleetEngine(sites).run())
    assert len(fleet) == 500
    completions = sum(
        int(result.columns.n_completed.sum()) for result in fleet.values()
    )
    assert completions > 0
    record(
        "fleet_500site_year",
        n_sites=len(sites),
        n_steps=grid.n,
        n_requests_per_site=len(sites[0].requests),
        total_completions=completions,
        fleet_s=fleet_t,
        site_years_per_second=len(sites) / fleet_t.median,
    )


def test_closed_loop_fleet_quarter():
    """32 closed-loop sites x 91 days vs the same sites open loop.

    The CI gate on the closed-loop fleet: every site dispatches its
    battery and priced grid against its own live demand, and the fleet
    must finish within :data:`CLOSED_OVER_OPEN_MAX` times the open-loop
    run of the same sites and requests.
    """
    days = 91
    grid = grid_days(YEAR_START, days)
    config = DatacenterConfig()
    open_sites = [fleet_site(500 + seed, grid, config) for seed in range(32)]
    closed_sites = [
        dataclasses.replace(
            site,
            supply=FLEET_BATTERY_SUPPLY.build(site.trace),
            supply_mode="closed",
        )
        for site in open_sites
    ]

    closed_t, open_t = paired(
        lambda: FleetEngine(closed_sites).run(),
        lambda: FleetEngine(open_sites).run(),
    )
    closed = FleetEngine(closed_sites).run()

    # Check two sampled sites against the dense oracle before trusting
    # the times, and that the closed loop actually dispatched supply.
    sampled = sorted(
        np.random.default_rng(0).choice(len(closed_sites), 2, replace=False)
    )
    for i in sampled:
        site = closed_sites[i]
        dense = Datacenter(
            site.config, site.trace,
            supply=site.supply, supply_mode=site.supply_mode,
        ).run(site.requests, engine="dense")
        assert closed[site.name].summary_dict() == dense.summary_dict()
    bought = sum(
        result.supply.grid_import_total_mwh for result in closed.values()
    )
    assert bought > 0.0

    ratio = closed_t.median / open_t.median
    record(
        "fleet_closed_loop_quarter",
        n_sites=len(closed_sites),
        n_steps=grid.n,
        n_requests_per_site=len(closed_sites[0].requests),
        closed_s=closed_t,
        open_s=open_t,
        closed_over_open=ratio,
        closed_over_open_max=CLOSED_OVER_OPEN_MAX,
        closed_site_years_per_second=(
            len(closed_sites) * days / 365 / closed_t.median
        ),
        dense_checked_sites=[closed_sites[i].name for i in sampled],
        grid_import_mwh=bought,
    )
    assert ratio <= CLOSED_OVER_OPEN_MAX
