"""Tests for the MIP's priced grid-import layer (GridPricing).

The planner-side half of the carbon/price-aware grid feature: grid
import variables ``g[s, t]`` let the MIP buy cores through a renewable
lull instead of migrating VMs away, weighted by spot price and carbon
intensity, bounded by the site's energy budget and import power limit.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sched import (
    GridPricing,
    MIPScheduler,
    RollingMIPScheduler,
    SchedulingProblem,
    SiteCapacity,
    placement_objective,
    problem_from_forecasts,
)
from repro.sched.decompose import (
    WindowState,
    build_window_problem,
    plan_windows,
)
from repro.sched.mip import _Layout, _assemble, _assemble_reference
from repro.forecast import PersistenceForecaster
from repro.supply import SupplySpec
from repro.traces import PowerTrace
from repro.units import TimeGrid
from repro.workload import Application, VMType

START = datetime(2020, 5, 1)


def make_grid(n=24):
    return TimeGrid(START, timedelta(hours=1), n)


def make_app(app_id=0, arrival=0, duration=24, vms=100, cores=4,
             stable=1.0):
    return Application(
        app_id, arrival, duration, vms,
        VMType(f"T{cores}", cores, 8.0), stable,
    )


def make_pricing(n=24, price=1.0, carbon=0.0, budget=1000.0,
                 max_power=None, carbon_weight=0.0, sites=("a",)):
    price_series = np.full(n, float(price))
    carbon_series = np.full(n, float(carbon))
    return GridPricing(
        price_per_mwh=price_series,
        carbon_per_mwh=carbon_series,
        step_hours=1.0,
        cores_per_mw={name: 10.0 for name in sites},
        budget_mwh={name: budget for name in sites},
        max_power_mw={name: max_power for name in sites},
        carbon_weight=carbon_weight,
    )


def lull_problem(pricing, n=24, lull=slice(8, 16), lull_cap=300.0,
                 base_cap=500.0, **kwargs):
    """One site whose capacity dips below the app's 400 stable cores."""
    capacity = np.full(n, base_cap)
    capacity[lull] = lull_cap
    sites = (SiteCapacity("a", 1000, capacity),)
    apps = (make_app(duration=n),)
    return SchedulingProblem(
        make_grid(n), sites, apps, 1e9, grid_pricing=pricing, **kwargs
    )


class TestGridPricingValidation:
    def test_rejects_length_mismatch_with_grid(self):
        with pytest.raises(SchedulingError, match="grid pricing length"):
            lull_problem(make_pricing(n=23))

    def test_rejects_price_carbon_length_mismatch(self):
        with pytest.raises(SchedulingError, match="lengths differ"):
            GridPricing(
                np.zeros(5), np.zeros(4), 1.0,
                {"a": 10.0}, {"a": 1.0},
            )

    def test_rejects_missing_site_tables(self):
        pricing = make_pricing(sites=("b",))
        with pytest.raises(SchedulingError, match="missing site"):
            lull_problem(pricing)

    def test_rejects_negative_weight_and_budget(self):
        with pytest.raises(SchedulingError, match="carbon weight"):
            make_pricing(carbon_weight=-1.0)
        with pytest.raises(SchedulingError, match="grid budget"):
            make_pricing(budget=-1.0)

    def test_rejects_non_finite_series(self):
        with pytest.raises(SchedulingError, match="finite"):
            GridPricing(
                np.array([1.0, np.inf]), np.zeros(2), 1.0,
                {"a": 10.0}, {"a": 1.0},
            )

    def test_power_cap_cores_handles_unlimited(self):
        pricing = make_pricing(max_power=None)
        assert pricing.site_power_cap_cores("a") == np.inf
        limited = make_pricing(max_power=5.0)
        assert limited.site_power_cap_cores("a") == 50.0


def assert_assembly_identical(problem, peak=False, previous=None):
    layout = _Layout(
        len(problem.apps), len(problem.sites), problem.grid.n,
        peak, reassign=previous is not None,
        grid=problem.grid_pricing is not None,
    )
    vec_m, vec_lb, vec_ub = _assemble(
        problem, layout, None, None, previous
    )
    ref_m, ref_lb, ref_ub = _assemble_reference(
        problem, layout, None, None, previous
    )
    assert vec_m.shape == ref_m.shape
    assert (vec_m - ref_m).nnz == 0
    vec_m.sort_indices()
    ref_m.sort_indices()
    assert np.array_equal(vec_m.indptr, ref_m.indptr)
    assert np.array_equal(vec_m.indices, ref_m.indices)
    assert np.array_equal(vec_m.data, ref_m.data)
    assert np.array_equal(vec_lb, ref_lb)
    assert np.array_equal(vec_ub, ref_ub)
    return layout, vec_m


class TestAssemblyGolden:
    def test_vectorized_matches_reference_with_pricing(self):
        problem = lull_problem(make_pricing(price=3.0, carbon=7.0))
        assert_assembly_identical(problem)

    def test_vectorized_matches_reference_peak_and_reassign(self):
        problem = lull_problem(
            make_pricing(price=2.0, budget=42.0, max_power=6.0)
        )
        previous = {0: {"a": 100}}
        assert_assembly_identical(problem, peak=True, previous=previous)

    def test_budget_row_bounds_and_coefficients(self):
        problem = lull_problem(make_pricing(budget=42.0))
        layout, matrix = assert_assembly_identical(problem)
        # Last row is the C7 budget row: h / cores_per_mw = 0.1 per g.
        budget_row = matrix.getrow(matrix.shape[0] - 1).toarray().ravel()
        g_cols = budget_row[layout.o_g : layout.n_vars]
        np.testing.assert_array_equal(g_cols, np.full(problem.grid.n, 0.1))
        assert not budget_row[: layout.o_g].any()

    def test_layout_without_pricing_is_unchanged(self):
        baseline = _Layout(2, 3, 24, peak=True, reassign=True)
        priced = _Layout(2, 3, 24, peak=True, reassign=True, grid=True)
        assert priced.o_g == baseline.n_vars
        assert priced.n_vars == baseline.n_vars + 3 * 24
        assert baseline.n_vars == baseline.o_g


class TestMonolithicGridChoice:
    def test_cheap_grid_buys_through_the_lull(self):
        # Lull deficit: 100 cores x 8 h = 80 MWh at $1 => $80, versus
        # ~100 GB of migration traffic.  The MIP buys.
        placement = MIPScheduler().schedule(lull_problem(make_pricing()))
        imports = placement.planned_grid_import["a"]
        assert len(imports) == 24
        assert imports[8:16].sum() == pytest.approx(80.0, rel=1e-4)
        assert imports[:8].sum() == pytest.approx(0.0, abs=1e-6)
        # Displacement stays flat: the grid absorbed the whole dip.
        assert placement.planned_displacement["a"].max() < 1.0

    def test_expensive_grid_displaces_instead(self):
        placement = MIPScheduler().schedule(
            lull_problem(make_pricing(price=100.0))
        )
        assert placement.planned_grid_import["a"].sum() < 1e-6
        assert placement.planned_displacement["a"].max() == (
            pytest.approx(100.0, rel=1e-4)
        )

    def test_budget_caps_total_purchase(self):
        placement = MIPScheduler().schedule(
            lull_problem(make_pricing(budget=40.0))
        )
        total = placement.planned_grid_import["a"].sum()
        assert total <= 40.0 + 1e-6
        assert total == pytest.approx(40.0, rel=1e-3)

    def test_power_limit_caps_per_step_purchase(self):
        placement = MIPScheduler().schedule(
            lull_problem(make_pricing(max_power=4.0))
        )
        # 4 MW at 10 cores/MW and 1 h steps = 4 MWh per step max.
        assert placement.planned_grid_import["a"].max() <= 4.0 + 1e-6

    def test_heavy_carbon_weight_suppresses_purchases(self):
        dirty = make_pricing(price=1.0, carbon=500.0, carbon_weight=10.0)
        placement = MIPScheduler().schedule(lull_problem(dirty))
        assert placement.planned_grid_import["a"].sum() < 1e-6

    def test_carbon_aware_buys_in_clean_hours(self):
        # Same price everywhere; the lull's first half is clean, the
        # second half dirty.  Weighted, the plan front-loads nothing —
        # it must cover each deficit step — but carbon cost shows up in
        # planned_cost either way.
        price = np.ones(24)
        carbon = np.zeros(24)
        carbon[12:16] = 300.0
        pricing = GridPricing(
            price, carbon, 1.0, {"a": 10.0}, {"a": 1000.0},
            carbon_weight=0.0,
        )
        placement = MIPScheduler().schedule(lull_problem(pricing))
        cost, kg = placement.planned_cost(pricing)
        assert cost == pytest.approx(80.0, rel=1e-4)
        assert kg == pytest.approx(4 * 10.0 * 300.0, rel=1e-4)

    def test_unpriced_problem_has_no_import_plan(self):
        placement = MIPScheduler().schedule(lull_problem(None))
        assert placement.planned_grid_import == {}

    def test_objective_matches_closed_form(self):
        problem = lull_problem(make_pricing(budget=40.0))
        scheduler = MIPScheduler()
        placement = scheduler.schedule(problem)
        closed = placement_objective(problem, placement)
        assert scheduler.last_timings.objective == pytest.approx(
            closed, rel=1e-6, abs=1e-6
        )


class TestDecomposedGridSeams:
    def lulled_arrivals_problem(self, pricing, lull=slice(8, None)):
        """Three windows of 8 steps, an arrival in each, lull in 2-3."""
        n = 24
        capacity = np.full(n, 500.0)
        capacity[lull] = 300.0
        sites = (SiteCapacity("a", 1000, capacity),)
        apps = (
            make_app(0, arrival=0, duration=24),
            make_app(1, arrival=8, duration=16, vms=1, cores=1),
            make_app(2, arrival=16, duration=8, vms=1, cores=1),
        )
        return SchedulingProblem(
            make_grid(n), sites, apps, 1e9, grid_pricing=pricing
        )

    def test_windows_share_the_budget(self):
        pricing = make_pricing(budget=100.0)
        problem = self.lulled_arrivals_problem(pricing)
        scheduler = MIPScheduler(decompose="window:8")
        placement = scheduler.schedule(problem)
        total = sum(
            float(np.sum(series))
            for series in placement.planned_grid_import.values()
        )
        assert total <= 100.0 + 1e-6
        assert scheduler.last_timings.mode == "window"
        assert not scheduler.last_timings.fell_back

    def test_window_state_carries_spend(self):
        pricing = make_pricing(budget=100.0)
        problem = self.lulled_arrivals_problem(pricing)
        state = WindowState(problem)
        plans = plan_windows(24, 8)
        built = build_window_problem(problem, plans[0], state)
        assert built.problem.grid_pricing.budget_mwh["a"] == 100.0
        state.grid_spent_mwh["a"] = 60.0
        built2 = build_window_problem(problem, plans[1], state)
        assert built2.problem.grid_pricing.budget_mwh["a"] == 40.0
        # Spend beyond the budget clamps at zero, never negative.
        state.grid_spent_mwh["a"] = 150.0
        built3 = build_window_problem(problem, plans[2], state)
        assert built3.problem.grid_pricing.budget_mwh["a"] == 0.0

    def test_windowed_matches_monolithic_quality(self):
        # The lull fits inside window 2, so its solve sees the whole
        # deficit and buys exactly like the monolithic plan (a lull
        # *spanning* seams is legitimately myopic instead: each window
        # re-buys its own slice without seeing the full 16-step cost).
        pricing = make_pricing(budget=1000.0)
        problem = self.lulled_arrivals_problem(
            pricing, lull=slice(8, 16)
        )
        mono = MIPScheduler()
        mono_placement = mono.schedule(problem)
        windowed = MIPScheduler(decompose="window:8")
        win_placement = windowed.schedule(problem)
        mono_obj = placement_objective(problem, mono_placement)
        win_obj = placement_objective(problem, win_placement)
        assert win_obj <= mono_obj * 1.05 + 1e-6

    def test_rolling_scheduler_carries_grid_plan(self):
        pricing = make_pricing(budget=100.0)
        problem = self.lulled_arrivals_problem(pricing)
        placement = RollingMIPScheduler(window_steps=8).schedule(problem)
        assert "a" in placement.planned_grid_import
        total = float(np.sum(placement.planned_grid_import["a"]))
        assert total <= 100.0 + 1e-6


class TestFromSupplySpec:
    def trace(self, n=24):
        values = np.full(n, 0.5)
        return PowerTrace(make_grid(n), values, "w", "wind", 40.0)

    def test_unpriced_spec_returns_none(self):
        spec = SupplySpec(grid_budget_mwh=10.0)
        assert GridPricing.from_supply_spec(
            spec, {"a": self.trace()}, {"a": 400}
        ) is None

    def test_gridless_spec_returns_none(self):
        spec = SupplySpec(battery_mwh=10.0, price_trace="constant",
                          price_per_mwh=50.0)
        assert GridPricing.from_supply_spec(
            spec, {"a": self.trace()}, {"a": 400}
        ) is None

    def test_constant_spec_round_trips(self):
        spec = SupplySpec(
            grid_budget_mwh=10.0, grid_power_mw=5.0,
            price_trace="constant", price_per_mwh=50.0,
            carbon_trace="daily",
        )
        pricing = GridPricing.from_supply_spec(
            spec, {"a": self.trace()}, {"a": 400}, carbon_weight=0.5
        )
        np.testing.assert_array_equal(
            pricing.price_per_mwh, np.full(24, 50.0)
        )
        assert pricing.carbon_per_mwh.min() >= 140.0 - 1e-9
        assert pricing.carbon_per_mwh.max() <= 280.0 + 1e-9
        assert pricing.budget_mwh == {"a": 10.0}
        assert pricing.max_power_mw == {"a": 5.0}
        assert pricing.cores_per_mw == {"a": 400 / 40.0}
        assert pricing.carbon_weight == 0.5

    def test_problem_from_forecasts_excludes_grid_from_firming(self):
        # With pricing the MIP owns the grid: the firmed forecast must
        # not also consume the stack's grid budget (double counting).
        trace = self.trace()
        spec = SupplySpec(
            grid_budget_mwh=50.0, price_trace="constant",
            price_per_mwh=50.0,
        )
        pricing = GridPricing.from_supply_spec(
            spec, {"a": trace}, {"a": 400}
        )
        stack = spec.build(trace)
        apps = (make_app(vms=1, cores=1),)
        with_pricing = problem_from_forecasts(
            trace.grid, {"a": trace}, {"a": 400}, apps,
            PersistenceForecaster(), supply=stack,
            grid_pricing=pricing,
        )
        without = problem_from_forecasts(
            trace.grid, {"a": trace}, {"a": 400}, apps,
            PersistenceForecaster(), supply=stack,
        )
        # The grid-firmed capacity tops up toward the firming target;
        # the battery-only (pricing) capacity cannot exceed it.
        assert with_pricing.grid_pricing is pricing
        assert without.grid_pricing is None
        assert (
            with_pricing.sites[0].capacity_cores.sum()
            <= without.sites[0].capacity_cores.sum()
        )
