"""Benchmarks of the fleet engine at study scale.

Not a paper figure — these gate :class:`~repro.sim.fleet.FleetEngine`,
which takes every site in turn through ``Datacenter.advance`` on the
step kernel inside one ``fleet.run`` span, against N independent
``Datacenter.run`` calls (the "looped" baseline), on the year-long
hundreds-of-sites study §3 motivates.

Every run writes machine-readable ``BENCH_fleet.json`` at the repo
root; CI uploads it as an artifact and fails the bench-smoke job if
the fleet engine is slower than the looped per-site kernel runs on the
64-site year.

Two baselines on purpose, reported side by side:

* ``speedup_vs_looped_kernel`` — against per-site ``Datacenter.run``
  calls on the step kernel: the same per-site driver over the same
  SoA kernel, already skipping idle steps, but keeping each site's
  per-VM event log, which fleet sites skip by default
  (``record_events=False``).  The fleet's win here is that event log
  and nothing else.  This is the hard CI gate (>= 1.0x, on medians of
  three interleaved rounds).
* ``speedup_vs_dense_looped`` — against per-site runs of the dense
  object-model oracle that walk all 35,040 steps.  This is the
  headline >= 3x acceptance number.

A third leg times a closed-loop fleet quarter — 32 sites x 91 days
behind the battery plus threshold-priced grid of the end-to-end
``fleet-battery`` workload — against the same sites run open loop, and
gates the ratio of the two medians at :data:`CLOSED_OVER_OPEN_MAX`.
Open loop is the floor the closed loop's supply dispatch adds to, on
the same machine in the same rounds, so the ratio isolates what the
closed-loop protocol costs.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import YEAR_START
from repro.sim import FleetEngine, FleetSite
from repro.supply import SupplySpec
from repro.traces import synthesize_wind
from repro.units import grid_days
from repro.workload import VMClass, VMRequest, VMType

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = REPO_ROOT / "BENCH_fleet.json"

_RESULTS: dict[str, dict] = {}

#: Interleaved rounds of the fleet-vs-looped-kernel pair; the gate
#: compares their medians.
GATED_ROUNDS = 3

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

#: Hard gate of the closed-loop leg: closed-loop fleet wall time over
#: the same sites' open-loop wall time, on medians.  On this instance
#: the per-site closed loop measures 2.0-2.2x and the lockstep batched
#: dispatcher it replaced measured 5.1-5.5x (2 CPUs, three runs each).
CLOSED_OVER_OPEN_MAX = 3.0

_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def _record(name: str, **extra) -> None:
    _RESULTS[name] = extra


def _time_once(fn):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer():
    """Write ``BENCH_fleet.json`` after the module's benches ran."""
    yield
    if not _RESULTS:
        return
    cpus = os.cpu_count() or 1
    machine = {
        "cpus": cpus,
        "python": sys.version.split()[0],
    }
    if cpus <= 2:
        # Recorded timings from constrained runners are directional
        # only — treat the intra-run ratios as the signal.
        machine["caveat"] = (
            "recorded on a single-core (or near-single-core) runner; "
            "absolute seconds are pessimistic, compare ratios only"
        )
    payload = {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine,
        "benches": dict(sorted(_RESULTS.items())),
    }
    BENCH_JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )
    print(f"\n[fleet trajectory written to {BENCH_JSON_PATH}]")


def _fleet_site(site_seed: int, grid, config) -> FleetSite:
    """One fleet site: three sparse week-scale batch campaigns, one per
    third of the horizon (at most 120 days apart — the same workload
    shape the sim-core year bench uses)."""
    rng = np.random.default_rng(site_seed)
    trace = synthesize_wind(grid, seed=site_seed, name=f"site{site_seed}")
    span = min(120, grid.n // 96 // 3)
    requests = []
    vm_id = 0
    for campaign in range(3):
        day = int(rng.integers(campaign * span, campaign * span + span // 2))
        arrival = day * 96
        for _ in range(400):
            lifetime = int(rng.integers(96, 3 * 96))
            vm_type = _VM_TYPES[rng.integers(0, len(_VM_TYPES))]
            vm_class = (
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE
            )
            requests.append(
                VMRequest(
                    vm_id,
                    arrival + int(rng.integers(0, 48)),
                    lifetime,
                    vm_type,
                    vm_class,
                )
            )
            vm_id += 1
    return FleetSite(
        name=f"site{site_seed}",
        config=config,
        trace=trace,
        requests=list(requests),
    )


def test_fleet_vs_looped_64site_year():
    """64 sites x 1 year: fleet vs per-site kernel and dense loops.

    The CI gate lives here: the fleet engine (the same per-site driver
    and SoA kernel, without event logs) must not be slower than the
    looped per-site kernel runs, and must hold >= 3x over the dense
    loop.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid, config) for seed in range(64)]

    def looped(engine: str):
        return {
            site.name: Datacenter(site.config, site.trace).run(
                site.requests, engine=engine
            )
            for site in sites
        }

    # The gated pair is timed in interleaved rounds and compared by
    # medians: both legs take about a second, and a burst of load from
    # other tenants of a shared runner must not land on one leg only.
    fleet_times, kernel_times = [], []
    for _ in range(GATED_ROUNDS):
        fleet = kernel = None  # free the previous round's results
        fleet, seconds = _time_once(lambda: FleetEngine(sites).run())
        fleet_times.append(seconds)
        kernel, seconds = _time_once(lambda: looped("event"))
        kernel_times.append(seconds)
    fleet_s = statistics.median(fleet_times)
    kernel_s = statistics.median(kernel_times)
    dense, dense_s = _time_once(lambda: looped("dense"))

    # Result-identical by construction — verify before trusting times.
    for site in sites:
        assert fleet[site.name].summary_dict() == kernel[site.name].summary_dict()
        assert fleet[site.name].summary_dict() == dense[site.name].summary_dict()

    speedup_vs_kernel = kernel_s / fleet_s
    speedup_vs_dense = dense_s / fleet_s
    _record(
        "fleet_64site_year",
        n_sites=len(sites),
        n_steps=grid.n,
        n_requests_per_site=len(sites[0].requests),
        gated_rounds=GATED_ROUNDS,
        fleet_s=fleet_s,
        looped_kernel_s=kernel_s,
        dense_looped_s=dense_s,
        speedup_vs_looped_kernel=speedup_vs_kernel,
        speedup_vs_dense_looped=speedup_vs_dense,
    )
    # Hard gate: both sides run the same per-site driver over the same
    # SoA kernel and the fleet skips the event logs, so its per-site
    # loop must cost no more than the logs it saves.
    assert speedup_vs_kernel >= 1.0
    # Acceptance headroom vs the dense per-site reference loop.
    assert speedup_vs_dense >= 3.0


def test_fleet_500site_year():
    """The 500-site x 1-year study in one engine call (EXPERIMENTS.md
    walkthrough).  Records absolute wall time; no looped baseline —
    the 64-site bench carries the comparison."""
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid, config) for seed in range(500)]

    fleet, fleet_s = _time_once(lambda: FleetEngine(sites).run())
    assert len(fleet) == 500
    completions = sum(
        int(result.columns.n_completed.sum()) for result in fleet.values()
    )
    assert completions > 0
    _record(
        "fleet_500site_year",
        n_sites=len(sites),
        n_steps=grid.n,
        n_requests_per_site=len(sites[0].requests),
        total_completions=completions,
        fleet_s=fleet_s,
        site_years_per_second=len(sites) / fleet_s,
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
    open_sites = [_fleet_site(500 + seed, grid, config) for seed in range(32)]
    closed_sites = [
        dataclasses.replace(
            site,
            supply=FLEET_BATTERY_SUPPLY.build(site.trace),
            supply_mode="closed",
        )
        for site in open_sites
    ]

    closed_times, open_times = [], []
    for _ in range(GATED_ROUNDS):
        closed = None  # free the previous round's results
        closed, seconds = _time_once(lambda: FleetEngine(closed_sites).run())
        closed_times.append(seconds)
        _, seconds = _time_once(lambda: FleetEngine(open_sites).run())
        open_times.append(seconds)
    closed_s = statistics.median(closed_times)
    open_s = statistics.median(open_times)

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

    ratio = closed_s / open_s
    _record(
        "fleet_closed_loop_quarter",
        n_sites=len(closed_sites),
        n_steps=grid.n,
        n_requests_per_site=len(closed_sites[0].requests),
        gated_rounds=GATED_ROUNDS,
        closed_s=closed_s,
        open_s=open_s,
        closed_over_open=ratio,
        closed_over_open_max=CLOSED_OVER_OPEN_MAX,
        closed_site_years_per_second=len(closed_sites) * days / 365 / closed_s,
        dense_checked_sites=[closed_sites[i].name for i in sampled],
        grid_import_mwh=bought,
    )
    assert ratio <= CLOSED_OVER_OPEN_MAX
