"""Benchmarks of the supply-stack plumbing at fleet scale.

Not a paper figure — these gate the supply layer's cost on the paths
every run takes.  The composition point sits inside ``Datacenter.run``
for all runs, supply-backed or not, so the empty-stack (pass-through)
case must stay free: a year-horizon fleet run with an empty
``SupplyStack`` may not regress more than 5% against the legacy
no-supply call (plus a small absolute floor so a loaded runner doesn't
flake on sub-second noise), and must stay result-identical.

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

Every run writes machine-readable ``BENCH_supply.json`` at the repo
root; CI uploads it as an artifact and fails the bench-smoke job if the
empty-stack gate trips.
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import YEAR_START
from repro.supply import BatteryDispatch, PricedGridPower, SupplyStack
from repro.traces import synthesize_wind
from repro.units import grid_days
from repro.workload import VMClass, VMRequest, VMType

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = REPO_ROOT / "BENCH_supply.json"

_RESULTS: dict[str, dict] = {}

_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def _record(name: str, **extra) -> None:
    _RESULTS[name] = extra


def _time_once(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer():
    """Write ``BENCH_supply.json`` after the module's benches ran."""
    yield
    if not _RESULTS:
        return
    cpus = os.cpu_count() or 1
    machine = {
        "cpus": cpus,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
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
    print(f"\n[supply trajectory written to {BENCH_JSON_PATH}]")


def _fleet_site(site_seed: int, grid) -> tuple:
    """One fleet site-year: three sparse week-scale batch campaigns.

    Mirrors ``bench_sim_sched._fleet_site`` — the shape whose skipped
    steps make the step kernel fast, i.e. where added per-run
    composition overhead would show up proportionally largest.
    """
    rng = np.random.default_rng(site_seed)
    trace = synthesize_wind(grid, seed=site_seed, name=f"site{site_seed}")
    requests = []
    vm_id = 0
    for campaign in range(3):
        day = int(rng.integers(campaign * 120, campaign * 120 + 60))
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
    return trace, requests


def test_supply_empty_stack_overhead():
    """Year-fleet kernel run: empty supply stack vs the legacy call.

    The CI gate.  An empty stack is a pass-through — ``Datacenter.run``
    must detect it and take the exact legacy precomputed-budget path,
    so the comparison is plumbing cost only: results identical, wall
    clock within 5% (+0.5s noise floor).
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid) for seed in range(4)]

    def run(supply):
        return [
            Datacenter(config, trace, supply=supply, supply_mode="open").run(
                requests, engine="event"
            )
            for trace, requests in sites
        ]

    legacy, legacy_s = _time_once(lambda: run(None))
    stacked, stacked_s = _time_once(lambda: run(SupplyStack()))
    for legacy_result, stacked_result in zip(legacy, stacked):
        assert legacy_result.records == stacked_result.records
        assert stacked_result.supply is None
    _record(
        "supply_empty_stack_year_fleet",
        n_steps=grid.n,
        n_sites=len(sites),
        legacy_s=legacy_s,
        empty_stack_s=stacked_s,
        overhead=stacked_s / legacy_s - 1.0,
    )
    assert stacked_s <= legacy_s * 1.05 + 0.5


def test_supply_battery_closed_loop_year():
    """One battery-backed site-year, closed loop, kernel and dense.

    The second CI gate: the closed-loop kernel path (pinned fills and
    per-step dispatch, waking the SoA step kernel only where needed)
    must stay within 4x of
    the open-loop kernel run of the same site without supply (+0.5s
    noise floor).  Dispatch is stateful at every step, so some
    multiple is inherent; an order of magnitude would mean the
    per-step work regressed to object-graph walking.  The kernel stays
    result-identical to the dense oracle.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    trace, requests = _fleet_site(11, grid)
    stack = SupplyStack(
        (BatteryDispatch(capacity_mwh=800.0, max_power_mw=200.0),)
    )

    _, open_s = _time_once(
        lambda: Datacenter(config, trace).run(requests, engine="event")
    )
    kernel, kernel_s = _time_once(
        lambda: Datacenter(config, trace, supply=stack).run(
            requests, engine="event"
        )
    )
    dense, dense_s = _time_once(
        lambda: Datacenter(config, trace, supply=stack).run(
            requests, engine="dense"
        )
    )
    assert kernel.records == dense.records
    np.testing.assert_array_equal(
        kernel.supply.soc_mwh, dense.supply.soc_mwh
    )
    _record(
        "supply_battery_closed_loop_year",
        n_steps=grid.n,
        open_loop_kernel_s=open_s,
        closed_kernel_s=kernel_s,
        closed_dense_s=dense_s,
        closed_kernel_vs_open_loop=kernel_s / open_s,
        charge_mwh=kernel.supply.charge_total_mwh,
        discharge_mwh=kernel.supply.discharge_total_mwh,
    )
    # Hard gate: a closed-loop battery year on the kernel stays within
    # 4x of the open-loop kernel run.
    assert kernel_s <= open_s * 4.0 + 0.5


def test_supply_priced_grid_closed_loop_year():
    """Carbon leg: priced closed-loop site-year vs the flat budget.

    The third CI gate.  A constant-price ``always``-policy
    ``PricedGridPower`` is bitwise identical to an unpriced one (a flat
    budget; pinned in ``tests/test_supply_pricing.py``), so the runs
    are result-identical and the comparison isolates the ledger cost:
    accumulating cost/carbon alongside the budget draw must stay within
    10% of the flat-budget closed-loop year (+0.5s noise floor).
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    trace, requests = _fleet_site(11, grid)
    price = np.full(grid.n, 42.0)
    carbon = np.full(grid.n, 210.0)

    def stack(grid_component):
        # Battery small enough that wind lulls spill onto the grid —
        # the ledger only costs anything on steps that actually import.
        return SupplyStack(
            (
                BatteryDispatch(capacity_mwh=50.0, max_power_mw=15.0),
                grid_component,
            )
        )

    def run(grid_component):
        return Datacenter(
            config,
            trace,
            supply=stack(grid_component),
            supply_mode="closed",
        ).run(requests, engine="soa")

    flat, flat_s = _time_once(
        lambda: run(PricedGridPower(budget_mwh=2000.0, max_power_mw=50.0))
    )
    priced, priced_s = _time_once(
        lambda: run(
            PricedGridPower(
                budget_mwh=2000.0,
                max_power_mw=50.0,
                price_per_mwh=price,
                carbon_per_mwh=carbon,
                policy="always",
            )
        )
    )
    assert flat.records == priced.records
    np.testing.assert_array_equal(
        flat.supply.grid_import_mwh, priced.supply.grid_import_mwh
    )
    imports = priced.supply.grid_import_total_mwh
    assert imports > 0.0
    assert np.isclose(priced.supply.cost_total_usd, imports * 42.0)
    assert np.isclose(priced.supply.carbon_total_kg, imports * 210.0)
    _record(
        "supply_priced_grid_closed_loop_year",
        n_steps=grid.n,
        flat_budget_s=flat_s,
        priced_s=priced_s,
        priced_vs_flat=priced_s / flat_s,
        grid_import_mwh=imports,
        cost_usd=priced.supply.cost_total_usd,
        carbon_kg=priced.supply.carbon_total_kg,
    )
    # Hard gate: the cost/carbon ledger is within 10% of flat budget.
    assert priced_s <= flat_s * 1.10 + 0.5


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
    evaluation, eval_s = _time_once(lambda: stack.evaluate_open_loop(trace))
    assert len(evaluation.delivered) == grid.n
    _record(
        "supply_open_loop_eval_year",
        n_steps=grid.n,
        eval_s=eval_s,
        steps_per_s=grid.n / eval_s,
        charge_mwh=evaluation.charge_total_mwh,
        discharge_mwh=evaluation.discharge_total_mwh,
    )
