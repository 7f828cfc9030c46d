"""Benchmarks of the supply-stack plumbing at fleet scale.

Not a paper figure — these gate the supply layer's cost on the paths
every run takes.  The composition point sits inside ``Datacenter.run``
for all runs, supply-backed or not, so the empty-stack (pass-through)
case must stay free: a year-horizon fleet run with an empty
``SupplyStack`` may not regress more than 5% against the legacy
no-supply call, and must stay result-identical.

The battery closed-loop bench carries a second hard gate: with pinned
stretches filled vectorized and live steps dispatched one by one,
waking the SoA step kernel only where needed, a battery-backed closed-loop
site-year must stay within 4x of the open-loop kernel run of the same
site without supply — closed-loop dispatch is stateful at every step,
but the per-step cost is a handful of float operations, not an
object-graph walk.  The open-loop evaluation throughput is recorded
without a gate.

The carbon leg carries the third hard gate: pricing the grid (a
constant-price ``always``-policy ``PricedGridPower`` instead of an
unpriced one, result-identical by the degenerate contract) must cost
at most 10% extra wall clock on a closed-loop site-year — the
cost/carbon ledger is two multiply-adds per import step, not a second
dispatch pass.

Every gated leg here takes 0.01-0.04 s.  The two legs of each gate run in
alternating passes of one time box, and the gate compares their
speed-normalized medians (``harness.py``), with no absolute noise
floor.  Every run merges its rows into ``BENCH_supply.json`` at the
repo root; CI uploads it as an artifact and fails the bench-smoke job
if a gate trips.
"""

from __future__ import annotations

import numpy as np

from harness import bench_file, fleet_site, paired, rounds
from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import YEAR_START
from repro.supply import BatteryDispatch, PricedGridPower, SupplyStack
from repro.traces import synthesize_wind
from repro.units import grid_days

record, write_bench_json = bench_file("BENCH_supply.json")


def test_supply_empty_stack_overhead():
    """Year-fleet kernel run: empty supply stack vs the legacy call.

    The CI gate.  An empty stack is a pass-through — ``Datacenter.run``
    must detect it and take the exact legacy precomputed-budget path,
    so the comparison is plumbing cost only: results identical, median
    wall clock within 5%.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [fleet_site(seed, grid, config) for seed in range(4)]

    def run(supply):
        return [
            Datacenter(
                site.config, site.trace, supply=supply, supply_mode="open"
            ).run(site.requests, engine="event")
            for site in sites
        ]

    legacy_t, stacked_t = paired(lambda: run(None), lambda: run(SupplyStack()))
    for legacy_result, stacked_result in zip(run(None), run(SupplyStack())):
        assert legacy_result.records == stacked_result.records
        assert stacked_result.supply is None
    ratio = stacked_t.median / legacy_t.median
    record(
        "supply_empty_stack_year_fleet",
        n_steps=grid.n,
        n_sites=len(sites),
        legacy_s=legacy_t,
        empty_stack_s=stacked_t,
        overhead=ratio - 1.0,
    )
    assert ratio <= 1.05


def test_supply_battery_closed_loop_year():
    """One battery-backed site-year, closed loop, kernel and dense.

    The second CI gate: the closed-loop kernel path (pinned fills and
    per-step dispatch, waking the SoA step kernel only where needed)
    must stay within 4x of the open-loop kernel run of the same site
    without supply, on medians.  Dispatch is stateful at every step, so
    some multiple is inherent; an order of magnitude would mean the
    per-step work regressed to object-graph walking.  The kernel stays
    result-identical to the dense oracle.
    """
    grid = grid_days(YEAR_START, 365)
    site = fleet_site(11, grid, DatacenterConfig())
    stack = SupplyStack(
        (BatteryDispatch(capacity_mwh=800.0, max_power_mw=200.0),)
    )

    def run(supply, engine):
        return Datacenter(site.config, site.trace, supply=supply).run(
            site.requests, engine=engine
        )

    open_t, kernel_t = paired(
        lambda: run(None, "event"), lambda: run(stack, "event")
    )
    dense, dense_t = rounds(lambda: run(stack, "dense"))
    kernel = run(stack, "event")
    assert kernel.records == dense.records
    np.testing.assert_array_equal(
        kernel.supply.soc_mwh, dense.supply.soc_mwh
    )
    ratio = kernel_t.median / open_t.median
    record(
        "supply_battery_closed_loop_year",
        n_steps=grid.n,
        open_loop_kernel_s=open_t,
        closed_kernel_s=kernel_t,
        closed_dense_s=dense_t,
        closed_kernel_vs_open_loop=ratio,
        charge_mwh=kernel.supply.charge_total_mwh,
        discharge_mwh=kernel.supply.discharge_total_mwh,
    )
    assert ratio <= 4.0


def test_supply_priced_grid_closed_loop_year():
    """Carbon leg: priced closed-loop site-year vs the flat budget.

    The third CI gate.  A constant-price ``always``-policy
    ``PricedGridPower`` is bitwise identical to an unpriced one (a flat
    budget; pinned in ``tests/test_supply_pricing.py``), so the runs
    are result-identical and the comparison isolates the ledger cost:
    accumulating cost/carbon alongside the budget draw must stay within
    10% of the flat-budget closed-loop year, on medians.
    """
    grid = grid_days(YEAR_START, 365)
    site = fleet_site(11, grid, DatacenterConfig())
    price = np.full(grid.n, 42.0)
    carbon = np.full(grid.n, 210.0)

    def run(**pricing):
        # Battery small enough that wind lulls spill onto the grid —
        # the ledger only costs anything on steps that actually import.
        stack = SupplyStack(
            (
                BatteryDispatch(capacity_mwh=50.0, max_power_mw=15.0),
                PricedGridPower(budget_mwh=2000.0, max_power_mw=50.0, **pricing),
            )
        )
        return Datacenter(
            site.config, site.trace, supply=stack, supply_mode="closed"
        ).run(site.requests, engine="soa")

    pricing = dict(price_per_mwh=price, carbon_per_mwh=carbon, policy="always")
    flat_t, priced_t = paired(run, lambda: run(**pricing))
    flat, priced = run(), run(**pricing)
    assert flat.records == priced.records
    np.testing.assert_array_equal(
        flat.supply.grid_import_mwh, priced.supply.grid_import_mwh
    )
    imports = priced.supply.grid_import_total_mwh
    assert imports > 0.0
    assert np.isclose(priced.supply.cost_total_usd, imports * 42.0)
    assert np.isclose(priced.supply.carbon_total_kg, imports * 210.0)
    ratio = priced_t.median / flat_t.median
    record(
        "supply_priced_grid_closed_loop_year",
        n_steps=grid.n,
        flat_budget_s=flat_t,
        priced_s=priced_t,
        priced_vs_flat=ratio,
        grid_import_mwh=imports,
        cost_usd=priced.supply.cost_total_usd,
        carbon_kg=priced.supply.carbon_total_kg,
    )
    assert ratio <= 1.10


def test_supply_open_loop_evaluation_year():
    """Open-loop battery evaluation over a year trace (35,040 steps).

    The per-step Python dispatch loop is the cost of a non-empty
    open-loop stack (empty stacks never enter it); the bench records
    its throughput.  No gate — this is new capability, not a refactor
    of a hot path.
    """
    grid = grid_days(YEAR_START, 365)
    trace = synthesize_wind(grid, seed=5, name="site")
    stack = SupplyStack(
        (BatteryDispatch(capacity_mwh=800.0, max_power_mw=200.0),)
    )
    evaluation, eval_t = rounds(lambda: stack.evaluate_open_loop(trace))
    assert len(evaluation.delivered) == grid.n
    record(
        "supply_open_loop_eval_year",
        n_steps=grid.n,
        eval_s=eval_t,
        steps_per_s=grid.n / eval_t.median,
        charge_mwh=evaluation.charge_total_mwh,
        discharge_mwh=evaluation.discharge_total_mwh,
    )
