"""Tests for the Greedy and MIP schedulers and the co-scheduler."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import CapacityError, SchedulingError, SolverError
from repro.forecast import NoisyOracleForecaster
from repro.multisite import SiteGraph
from repro.sched import (
    CoScheduler,
    GreedyScheduler,
    MIPScheduler,
    RollingMIPScheduler,
    SchedulingProblem,
    SiteCapacity,
    consolidate_vms_onto_servers,
    evaluate_placement_overhead,
)
from repro.sched.mip import _round_preserving_sum
from repro.sched.placement import powered_server_count
from repro.traces import (
    default_european_catalog,
    synthesize_catalog_traces,
)
from repro.units import TimeGrid
from repro.workload import Application, VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)


def make_grid(n=24):
    return TimeGrid(START, timedelta(hours=1), n)


def make_app(app_id=0, arrival=0, duration=24, vms=10, cores=2,
             memory=8.0, stable=0.5):
    return Application(
        app_id, arrival, duration, vms, VMType(f"T{cores}", cores, memory),
        stable,
    )


def two_site_problem(cap_a, cap_b, apps, total=1000, **kwargs):
    n = len(cap_a)
    sites = (
        SiteCapacity("a", total, np.asarray(cap_a, float)),
        SiteCapacity("b", total, np.asarray(cap_b, float)),
    )
    return SchedulingProblem(
        make_grid(n), sites, tuple(apps),
        kwargs.pop("bytes_per_core", 1.0), **kwargs,
    )


class TestGreedy:
    def test_picks_most_available_power(self):
        problem = two_site_problem(
            np.full(24, 900.0), np.full(24, 100.0),
            [make_app(0, vms=10, cores=2)],
        )
        placement = GreedyScheduler().schedule(problem)
        assert placement.assignment[0] == {"a": 10}

    def test_spills_when_best_site_full(self):
        # Site a has more power but cap limits it to 9 VMs of 100 cores.
        problem = two_site_problem(
            np.full(24, 1000.0), np.full(24, 500.0),
            [make_app(0, vms=12, cores=100)],
            utilization_cap=0.9,
        )
        placement = GreedyScheduler().schedule(problem)
        assert placement.assignment[0]["a"] == 9
        assert placement.assignment[0]["b"] == 3

    def test_accounts_for_earlier_apps(self):
        apps = [
            make_app(0, vms=4, cores=100, duration=24),
            make_app(1, vms=4, cores=100, duration=24),
        ]
        problem = two_site_problem(
            np.full(24, 600.0), np.full(24, 500.0), apps,
            utilization_cap=0.5,  # 500 cores per site
        )
        placement = GreedyScheduler().schedule(problem)
        # First app takes a (most power); second no longer fits there
        # entirely: 400 + 400 > 500.
        a_total = placement.vms_at(0, "a") + placement.vms_at(1, "a")
        assert a_total <= 5

    def test_infeasible_raises(self):
        problem = two_site_problem(
            np.full(24, 100.0), np.full(24, 100.0),
            [make_app(0, vms=50, cores=100)],
        )
        with pytest.raises(SchedulingError):
            GreedyScheduler().schedule(problem)

    def test_complete_assignment(self):
        problem = two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(i, vms=7, cores=3) for i in range(10)],
        )
        placement = GreedyScheduler().schedule(problem)
        placement.validate_complete(problem)


class TestMIP:
    def test_validation(self):
        with pytest.raises(SolverError):
            MIPScheduler(peak_weight=-1.0)
        with pytest.raises(SolverError):
            MIPScheduler(time_limit_s=0.0)
        with pytest.raises(SolverError):
            RollingMIPScheduler(window_steps=0)

    def test_complete_assignment(self):
        problem = two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(i, vms=7, cores=3) for i in range(6)],
        )
        placement = MIPScheduler().schedule(problem)
        placement.validate_complete(problem)

    def test_avoids_predicted_dip(self):
        # Site a's capacity collapses mid-horizon; an ample site b does
        # not.  The MIP must place the stable app on b.
        cap_a = np.concatenate([np.full(12, 900.0), np.full(12, 0.0)])
        cap_b = np.full(24, 500.0)
        problem = two_site_problem(
            cap_a, cap_b, [make_app(0, vms=10, cores=2, stable=1.0)]
        )
        placement = MIPScheduler().schedule(problem)
        assert placement.assignment[0] == {"b": 10}

    def test_greedy_falls_into_dip_mip_does_not(self):
        cap_a = np.concatenate([np.full(12, 900.0), np.full(12, 0.0)])
        cap_b = np.full(24, 500.0)
        apps = [make_app(0, vms=10, cores=2, stable=1.0)]
        problem = two_site_problem(cap_a, cap_b, apps)
        greedy = GreedyScheduler().schedule(problem)
        mip = MIPScheduler().schedule(problem)
        greedy_cost = sum(
            s.sum()
            for s in evaluate_placement_overhead(problem, greedy).values()
        )
        mip_cost = sum(
            s.sum()
            for s in evaluate_placement_overhead(problem, mip).values()
        )
        assert greedy.assignment[0] == {"a": 10}  # most power now
        assert mip_cost < greedy_cost

    def test_respects_capacity_cap(self):
        # One site with room for everything, another tiny: the cap
        # forces splitting.
        problem = two_site_problem(
            np.full(24, 1000.0), np.full(24, 1000.0),
            [make_app(0, vms=20, cores=50, stable=0.0)],
            utilization_cap=0.6,
        )
        placement = MIPScheduler().schedule(problem)
        for name in ("a", "b"):
            assert placement.vms_at(0, name) * 50 <= 600

    def test_planned_displacement_attached(self):
        problem = two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(0, vms=5)],
        )
        placement = MIPScheduler().schedule(problem)
        assert set(placement.planned_displacement) == {"a", "b"}
        assert len(placement.planned_displacement["a"]) == 24

    def test_peak_variant_reduces_peak(self):
        # Deep forced dip: some displacement is unavoidable; peak-aware
        # solve should spread it.
        rng = np.random.default_rng(5)
        cap_a = np.clip(600 + 300 * np.sin(np.arange(48) / 4)
                        + rng.normal(0, 50, 48), 0, 1000)
        cap_b = np.clip(500 - 300 * np.sin(np.arange(48) / 4)
                        + rng.normal(0, 50, 48), 0, 1000)
        apps = [
            make_app(i, arrival=0, duration=48, vms=10, cores=8,
                     stable=1.0)
            for i in range(10)
        ]
        n = 48
        sites = (
            SiteCapacity("a", 1000, cap_a),
            SiteCapacity("b", 1000, cap_b),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps), bytes_per_core=1e9
        )
        total_only = MIPScheduler().schedule(problem)
        peaky = MIPScheduler(peak_weight=100.0).schedule(problem)

        def peak_of(placement):
            per_site = evaluate_placement_overhead(problem, placement)
            series = np.sum(list(per_site.values()), axis=0)
            return series.max()

        # Evaluate realized traffic following each plan's trajectory.
        from repro.sim import execute_placement

        actual = {"a": cap_a, "b": cap_b}
        total_result = execute_placement(problem, total_only, actual)
        peak_result = execute_placement(problem, peaky, actual)
        assert (
            peak_result.total_transfer_series().max()
            <= total_result.total_transfer_series().max() + 1e-6
        )

    def test_relaxed_solve_close_to_integer(self):
        problem = two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(i, vms=7, cores=3) for i in range(6)],
        )
        relaxed = MIPScheduler(integer_vms=False).schedule(problem)
        relaxed.validate_complete(problem)

    def test_infeasible_raises(self):
        problem = two_site_problem(
            np.full(24, 10.0), np.full(24, 10.0),
            [make_app(0, vms=100, cores=100)],
        )
        with pytest.raises(SolverError):
            MIPScheduler().schedule(problem)


class TestRoundPreservingSum:
    def test_exact_integers_pass_through(self):
        out = _round_preserving_sum(np.array([3.0, 7.0]), 10)
        assert list(out) == [3, 7]

    def test_fractions_distributed(self):
        out = _round_preserving_sum(np.array([3.6, 6.4]), 10)
        assert out.sum() == 10
        assert list(out) == [4, 6]

    def test_solver_noise_trimmed(self):
        out = _round_preserving_sum(np.array([5.0000001, 5.0000001]), 10)
        assert out.sum() == 10

    def test_zero_target(self):
        out = _round_preserving_sum(np.array([0.2, 0.1]), 0)
        assert out.sum() == 0


class TestWarmStart:
    """One scheduler re-solves: nothing from a previous solve carries
    into the next, so a repeat gives the same placement and a problem
    of another shape solves cleanly."""

    def small_problem(self):
        return two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(i, vms=5, cores=2) for i in range(4)],
        )

    def test_timings_field_defaults_off(self):
        scheduler = MIPScheduler()
        placement = scheduler.schedule(self.small_problem())
        placement.validate_complete(self.small_problem())
        t = scheduler.last_timings
        assert t is not None
        assert t.mode == "monolithic"
        assert t.fell_back is False
        assert t.windows == ()

    def test_warm_start_falls_back_cleanly(self):
        problem = self.small_problem()
        scheduler = MIPScheduler()
        first = scheduler.schedule(problem)
        first.validate_complete(problem)
        second = scheduler.schedule(problem)
        second.validate_complete(problem)
        assert first.assignment == second.assignment

    def test_shape_change_resets_seed(self):
        scheduler = MIPScheduler()
        small = self.small_problem()
        scheduler.schedule(small).validate_complete(small)
        bigger = two_site_problem(
            np.full(24, 700.0), np.full(24, 600.0),
            [make_app(i, vms=5, cores=2) for i in range(7)],
        )
        placement = scheduler.schedule(bigger)
        placement.validate_complete(bigger)


class TestRollingMIP:
    def test_complete_assignment_across_days(self):
        n = 72  # 3 days hourly
        apps = [
            make_app(i, arrival=24 * (i % 3), duration=24, vms=5)
            for i in range(6)
        ]
        sites = (
            SiteCapacity("a", 1000, np.full(n, 700.0)),
            SiteCapacity("b", 1000, np.full(n, 600.0)),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps), bytes_per_core=1.0
        )
        placement = RollingMIPScheduler(window_steps=24).schedule(problem)
        placement.validate_complete(problem)

    def test_background_load_respected(self):
        # Day-1 apps fill site a; day-2 apps must go to b.
        n = 48
        apps = [
            make_app(0, arrival=0, duration=48, vms=9, cores=100),
            make_app(1, arrival=24, duration=24, vms=9, cores=100),
        ]
        sites = (
            SiteCapacity("a", 1000, np.full(n, 1000.0)),
            SiteCapacity("b", 1000, np.full(n, 900.0)),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps),
            bytes_per_core=1.0, utilization_cap=1.0,
        )
        placement = RollingMIPScheduler(window_steps=24).schedule(problem)
        placement.validate_complete(problem)
        a_load = (
            placement.vms_at(0, "a") * 100 + placement.vms_at(1, "a") * 100
        )
        assert a_load <= 1000

    def test_capacity_provider_used(self):
        n = 48
        calls = []

        def provider(name, issue, horizon):
            calls.append((name, issue, horizon))
            return np.full(horizon, 500.0)

        apps = [make_app(0, arrival=0, duration=24, vms=5),
                make_app(1, arrival=24, duration=24, vms=5)]
        sites = (
            SiteCapacity("a", 1000, np.full(n, 700.0)),
            SiteCapacity("b", 1000, np.full(n, 600.0)),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps), bytes_per_core=1.0
        )
        RollingMIPScheduler(
            window_steps=24, capacity_provider=provider
        ).schedule(problem)
        issues = {issue for _, issue, _ in calls}
        assert issues == {0, 24}


class TestVMPlacementStep:
    def _requests(self, count, cores=4):
        vm_type = VMType(f"T{cores}", cores, cores * 4.0)
        return [
            VMRequest(i, 0, 10, vm_type, VMClass.STABLE)
            for i in range(count)
        ]

    def test_consolidation_minimizes_servers(self):
        # 10 x 4-core VMs on 40-core servers: exactly one server needed.
        servers, mapping = consolidate_vms_onto_servers(
            self._requests(10), n_servers=10
        )
        assert powered_server_count(servers) == 1
        assert len(mapping) == 10

    def test_overflow_to_second_server(self):
        servers, _ = consolidate_vms_onto_servers(
            self._requests(11), n_servers=10
        )
        assert powered_server_count(servers) == 2

    def test_capacity_error_when_too_small(self):
        with pytest.raises(CapacityError):
            consolidate_vms_onto_servers(self._requests(25), n_servers=2)

    def test_mapping_is_consistent(self):
        servers, mapping = consolidate_vms_onto_servers(
            self._requests(7), n_servers=3
        )
        for vm_id, server_id in mapping.items():
            hosted = {vm.vm_id for vm in servers[server_id].vms()}
            assert vm_id in hosted


class TestCoScheduler:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = default_european_catalog().subset(
            ["UK-wind", "NL-wind", "BE-wind", "DK-wind", "BE-solar"]
        )
        grid = TimeGrid(START, timedelta(hours=1), 72)
        traces = synthesize_catalog_traces(catalog, grid, seed=23)
        graph = SiteGraph(catalog, traces, latency_threshold_ms=50.0)
        cores = {name: 20000 for name in catalog.names}
        return graph, cores

    def test_identify_subgraphs(self, setup):
        graph, cores = setup
        scheduler = CoScheduler(
            graph, cores, NoisyOracleForecaster(seed=1), k_range=(2, 3)
        )
        candidates = scheduler.identify_subgraphs()
        assert candidates
        assert all(2 <= c.k <= 3 for c in candidates)

    def test_schedule_batch_end_to_end(self, setup):
        graph, cores = setup
        scheduler = CoScheduler(
            graph, cores, NoisyOracleForecaster(seed=1), k_range=(2, 3)
        )
        apps = [make_app(i, arrival=0, duration=48, vms=20) for i in range(5)]
        outcome = scheduler.schedule_batch(apps, issue_index=0, horizon=72)
        outcome.placement.validate_complete(outcome.problem)
        assert set(outcome.subgraph.names) <= set(cores)

    def test_sequential_batches_accumulate_load(self, setup):
        graph, cores = setup
        scheduler = CoScheduler(
            graph, cores, NoisyOracleForecaster(seed=1), k_range=(2, 2)
        )
        apps1 = [make_app(0, duration=48, vms=10)]
        apps2 = [make_app(1, duration=48, vms=10)]
        scheduler.schedule_batch(apps1, horizon=72)
        committed_before = {
            k: v.copy() for k, v in scheduler._committed.items()
        }
        scheduler.schedule_batch(apps2, horizon=72)
        total_after = sum(v.sum() for v in scheduler._committed.values())
        total_before = sum(v.sum() for v in committed_before.values())
        assert total_after > total_before

    def test_validation(self, setup):
        graph, cores = setup
        forecaster = NoisyOracleForecaster(seed=1)
        with pytest.raises(SchedulingError):
            CoScheduler(graph, cores, forecaster, k_range=(1, 3))
        with pytest.raises(SchedulingError):
            CoScheduler(graph, {}, forecaster)
        scheduler = CoScheduler(graph, cores, forecaster)
        with pytest.raises(SchedulingError):
            scheduler.schedule_batch([])


class TestCoSchedulerMIPSelection:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = default_european_catalog().subset(
            ["UK-wind", "NL-wind", "BE-wind", "DK-wind", "BE-solar"]
        )
        grid = TimeGrid(START, timedelta(hours=1), 72)
        traces = synthesize_catalog_traces(catalog, grid, seed=29)
        graph = SiteGraph(catalog, traces, latency_threshold_ms=50.0)
        cores = {name: 20000 for name in catalog.names}
        return graph, cores

    def test_mip_selection_end_to_end(self, setup):
        graph, cores = setup
        scheduler = CoScheduler(
            graph, cores, NoisyOracleForecaster(seed=1),
            k_range=(2, 3), subgraph_selection="mip", mip_shortlist=2,
        )
        apps = [make_app(i, duration=48, vms=20) for i in range(4)]
        outcome = scheduler.schedule_batch(apps, horizon=72)
        outcome.placement.validate_complete(outcome.problem)

    def test_mip_selection_never_worse_than_score_on_plan(self, setup):
        graph, cores = setup
        apps = [make_app(i, duration=48, vms=20) for i in range(4)]
        outcomes = {}
        for mode in ("score", "mip"):
            scheduler = CoScheduler(
                graph, cores, NoisyOracleForecaster(seed=1),
                k_range=(2, 3), subgraph_selection=mode,
                mip_shortlist=3,
            )
            outcomes[mode] = scheduler.schedule_batch(apps, horizon=72)
        from repro.sched import evaluate_placement_overhead

        def plan_cost(outcome):
            per_site = evaluate_placement_overhead(
                outcome.problem, outcome.placement
            )
            return sum(s.sum() for s in per_site.values())

        # MIP selection solved the score pick too (shortlist covers
        # it), so its chosen plan cannot be more expensive.
        assert plan_cost(outcomes["mip"]) <= plan_cost(
            outcomes["score"]
        ) + 1e-6

    def test_validation(self, setup):
        graph, cores = setup
        forecaster = NoisyOracleForecaster(seed=1)
        with pytest.raises(SchedulingError):
            CoScheduler(
                graph, cores, forecaster, subgraph_selection="magic"
            )
        with pytest.raises(SchedulingError):
            CoScheduler(graph, cores, forecaster, mip_shortlist=0)


class TestReplanning:
    def _problem(self, cap_a, cap_b):
        apps = [make_app(i, vms=10, cores=2, stable=1.0) for i in range(4)]
        return two_site_problem(cap_a, cap_b, apps, bytes_per_core=4 * 2**30)

    def test_switch_weight_validation(self):
        problem = self._problem(np.full(24, 500.0), np.full(24, 500.0))
        with pytest.raises(SolverError):
            MIPScheduler().schedule(
                problem, previous_assignment={}, switch_weight=-1.0
            )

    def test_replanning_sticks_when_nothing_changed(self):
        # Symmetric sites: without switching costs, many optima exist;
        # with a previous assignment, the solver must keep it.
        problem = self._problem(np.full(24, 500.0), np.full(24, 500.0))
        previous = {i: {"a": 10} for i in range(4)}
        placement = MIPScheduler().schedule(
            problem, previous_assignment=previous, switch_weight=1.0
        )
        for app_id in range(4):
            assert placement.assignment[app_id] == {"a": 10}

    def test_replanning_moves_when_savings_justify(self):
        # Site a's forecast now collapses: keeping stable apps there
        # costs far more than moving them, so the replan must move.
        cap_a = np.concatenate([np.full(4, 500.0), np.full(20, 0.0)])
        problem = self._problem(cap_a, np.full(24, 500.0))
        previous = {i: {"a": 10} for i in range(4)}
        placement = MIPScheduler().schedule(
            problem, previous_assignment=previous, switch_weight=1.0
        )
        moved = sum(placement.vms_at(i, "b") for i in range(4))
        assert moved == 40

    def test_huge_switch_weight_freezes_placement(self):
        cap_a = np.concatenate([np.full(4, 500.0), np.full(20, 0.0)])
        problem = self._problem(cap_a, np.full(24, 500.0))
        previous = {i: {"a": 10} for i in range(4)}
        placement = MIPScheduler().schedule(
            problem, previous_assignment=previous,
            switch_weight=1e6,
        )
        for app_id in range(4):
            assert placement.assignment[app_id] == {"a": 10}

    def test_new_apps_unconstrained_by_replanning(self):
        # Apps without a previous assignment place freely.
        problem = self._problem(np.full(24, 900.0), np.full(24, 100.0))
        previous = {0: {"b": 10}}  # only app 0 has history
        placement = MIPScheduler().schedule(
            problem, previous_assignment=previous, switch_weight=1.0
        )
        placement.validate_complete(problem)
        assert placement.assignment[0] == {"b": 10}


class TestRollingWithPeak:
    def test_rolling_scheduler_accepts_mip_kwargs(self):
        n = 48
        apps = [make_app(0, arrival=0, duration=24, vms=5),
                make_app(1, arrival=24, duration=24, vms=5)]
        sites = (
            SiteCapacity("a", 1000, np.full(n, 700.0)),
            SiteCapacity("b", 1000, np.full(n, 600.0)),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps), bytes_per_core=1.0
        )
        placement = RollingMIPScheduler(
            window_steps=24, peak_weight=10.0, time_limit_s=20.0
        ).schedule(problem)
        placement.validate_complete(problem)

    def test_rolling_single_window_equals_full_horizon_problem(self):
        # With the window covering the whole horizon and no refresher,
        # rolling degenerates to one full solve.
        n = 24
        apps = [make_app(i, vms=5) for i in range(3)]
        sites = (
            SiteCapacity("a", 1000, np.full(n, 700.0)),
            SiteCapacity("b", 1000, np.full(n, 600.0)),
        )
        problem = SchedulingProblem(
            make_grid(n), sites, tuple(apps), bytes_per_core=1.0
        )
        rolled = RollingMIPScheduler(window_steps=n).schedule(problem)
        direct = MIPScheduler().schedule(problem)
        rolled_demand = {
            a.app_id: sum(rolled.assignment[a.app_id].values())
            for a in apps
        }
        direct_demand = {
            a.app_id: sum(direct.assignment[a.app_id].values())
            for a in apps
        }
        assert rolled_demand == direct_demand
