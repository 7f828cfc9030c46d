"""Tests for the composable supply layer (repro.supply).

Pins three contracts:

- **Golden pass-through**: an empty stack reproduces the legacy
  core-budget path bit for bit, across both engines and both power
  models, in both dispatch modes.
- **Physics**: battery state of charge stays bounded, respects the
  power rating, and conserves energy (charged minus discharged over
  efficiency equals the SoC delta); the grid component never exceeds
  its budget.  A one-battery open-loop stack matches the legacy
  ``smooth_with_battery`` smoothing bitwise.
- **Closed loop helps**: dispatching a battery against live demand
  yields nonzero discharge in dips and strictly fewer evictions than
  the raw trace on the same workload.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro import obs
from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    ServerSpec,
)
from repro.cluster.datacenter import StepColumns
from repro.errors import ConfigurationError
from repro.experiments import Scenario, WorkloadSpec
from repro.forecast import NoisyOracleForecaster
from repro.multisite import VBSite
from repro.multisite.physical_battery import (
    BatterySpec,
    smooth_with_battery,
)
from repro.sched import problem_from_forecasts
from repro.sim import simulate
from repro.sched import Placement
from repro.supply import (
    NO_SUPPLY,
    BatteryDispatch,
    PricedGridPower,
    SupplyDispatcher,
    SupplyEvaluation,
    SupplySpec,
    SupplyStack,
    supply_stack,
)
from repro.traces import PowerTrace
from repro.units import TimeGrid, grid_days
from repro.workload import (
    Application,
    VMClass,
    VMRequest,
    VMType,
)

START = datetime(2020, 5, 1)


def make_trace(values, capacity_mw=100.0, step_minutes=15):
    grid = TimeGrid(
        START, timedelta(minutes=step_minutes), len(values)
    )
    return PowerTrace(
        grid, np.asarray(values, dtype=float), "t", "wind", capacity_mw
    )


def dippy_trace(n=400, capacity_mw=100.0, seed=7):
    """Noisy generation with hard dips — work for a battery to do."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = np.clip(
        0.55 + 0.4 * np.sin(2 * np.pi * t / 96) + rng.normal(0, 0.1, n),
        0.0,
        1.0,
    )
    values[(t % 120) < 16] = 0.0
    return make_trace(values, capacity_mw)


def small_config(**overrides):
    defaults = dict(
        cluster=ClusterSpec(n_servers=8, server=ServerSpec(cores=10)),
        queue_patience_steps=50,
    )
    defaults.update(overrides)
    return DatacenterConfig(**defaults)


def requests_for(n_steps, count=120, seed=3, cores=2):
    rng = np.random.default_rng(seed)
    vm_type = VMType(f"T{cores}", cores, cores * 4.0)
    return [
        VMRequest(
            i,
            int(rng.integers(0, n_steps)),
            int(rng.integers(4, 120)),
            vm_type,
            VMClass.STABLE if rng.random() < 0.6 else VMClass.DEGRADABLE,
        )
        for i in range(count)
    ]


def battery_stack(capacity_mwh=200.0, power_mw=50.0, **kwargs):
    return SupplyStack(
        (BatteryDispatch(capacity_mwh, power_mw, **kwargs),)
    )


# ----------------------------------------------------------------------
# Component physics
# ----------------------------------------------------------------------


class TestBatteryDispatch:
    def test_soc_stays_bounded_and_power_limited(self):
        battery = BatteryDispatch(
            capacity_mwh=10.0, max_power_mw=5.0, efficiency=0.9
        )
        state = battery.initial_state()
        rng = np.random.default_rng(0)
        h = 0.25
        for _ in range(2000):
            balance = float(rng.normal(0, 20))
            delta = battery.step(state, balance, h)
            # The discharge arithmetic (soc -= discharged / eff) can
            # undershoot zero by an ulp, exactly like the legacy
            # smooth_with_battery loop it mirrors.
            assert -1e-9 <= state.soc_mwh <= battery.capacity_mwh + 1e-12
            assert abs(delta) <= battery.max_power_mw + 1e-12
            if balance >= 0:
                assert delta <= 0.0  # absorbs, never emits, on surplus
                assert -delta <= balance + 1e-12
            else:
                # An ulp-negative SoC makes deliverable energy (and so
                # the returned delta) ulp-negative too; same tolerance.
                assert delta >= -1e-9
                assert delta <= -balance + 1e-12

    def test_energy_conservation(self):
        """charged - discharged/eff == SoC delta, step by step sum."""
        battery = BatteryDispatch(
            capacity_mwh=8.0, max_power_mw=4.0, efficiency=0.85
        )
        state = battery.initial_state()
        soc_start = state.soc_mwh
        rng = np.random.default_rng(1)
        h = 0.25
        charged = discharged = 0.0
        for _ in range(3000):
            delta = battery.step(state, float(rng.normal(0, 10)), h)
            if delta < 0:
                charged += -delta * h
            else:
                discharged += delta * h
        assert state.soc_mwh == pytest.approx(
            soc_start + charged - discharged / battery.efficiency
        )

    def test_full_battery_rejects_charge(self):
        battery = BatteryDispatch(
            capacity_mwh=2.0, max_power_mw=100.0,
            initial_charge_fraction=1.0,
        )
        state = battery.initial_state()
        assert battery.step(state, 50.0, 1.0) == 0.0
        assert state.soc_mwh == 2.0

    def test_empty_battery_cannot_discharge(self):
        battery = BatteryDispatch(
            capacity_mwh=2.0, max_power_mw=100.0,
            initial_charge_fraction=0.0,
        )
        state = battery.initial_state()
        assert battery.step(state, -50.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity_mwh=-1.0, max_power_mw=1.0),
            dict(capacity_mwh=1.0, max_power_mw=0.0),
            dict(capacity_mwh=1.0, max_power_mw=1.0, efficiency=0.0),
            dict(capacity_mwh=1.0, max_power_mw=1.0, efficiency=1.1),
            dict(
                capacity_mwh=1.0, max_power_mw=1.0,
                initial_charge_fraction=1.5,
            ),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatteryDispatch(**kwargs)


class TestUnpricedGrid:
    def test_budget_is_never_exceeded(self):
        grid = PricedGridPower(budget_mwh=5.0)
        state = grid.initial_state()
        drawn = 0.0
        for _ in range(100):
            delta = grid.step(state, -10.0, 0.25)
            drawn += delta * 0.25
        assert drawn == pytest.approx(5.0)
        assert state.remaining_mwh == pytest.approx(0.0)
        assert grid.step(state, -10.0, 0.25) == 0.0

    def test_never_absorbs_surplus(self):
        grid = PricedGridPower(budget_mwh=5.0)
        state = grid.initial_state()
        assert grid.step(state, 10.0, 0.25) == 0.0
        assert state.remaining_mwh == 5.0

    def test_power_limit_caps_draw(self):
        grid = PricedGridPower(budget_mwh=100.0, max_power_mw=2.0)
        state = grid.initial_state()
        assert grid.step(state, -10.0, 0.25) == 2.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PricedGridPower(budget_mwh=-1.0)
        with pytest.raises(ConfigurationError):
            PricedGridPower(budget_mwh=1.0, max_power_mw=0.0)


# ----------------------------------------------------------------------
# Open loop: golden pass-through and legacy smoothing equivalence
# ----------------------------------------------------------------------


class TestOpenLoopGolden:
    def test_empty_stack_delivers_the_trace_array_itself(self):
        trace = dippy_trace()
        evaluation = SupplyStack().evaluate_open_loop(trace)
        assert evaluation.delivered is trace.values
        assert SupplyStack().apply(trace) is trace

    @pytest.mark.parametrize("engine", ["event", "dense"])
    @pytest.mark.parametrize("power_model", ["linear", "server"])
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_empty_stack_simulation_is_bit_identical(
        self, engine, power_model, mode
    ):
        """The legacy no-supply run is reproduced exactly."""
        trace = dippy_trace()
        requests = requests_for(len(trace))
        config = small_config(power_model=power_model)
        legacy = Datacenter(config, trace).run(requests, engine=engine)
        stacked = Datacenter(
            config, trace, supply=SupplyStack(), supply_mode=mode
        ).run(requests, engine=engine)
        for column in (
            "norm_power", "core_budget", "n_evicted", "n_paused",
            "out_bytes", "in_bytes", "running_cores",
        ):
            np.testing.assert_array_equal(
                getattr(legacy.columns, column),
                getattr(stacked.columns, column),
            )
        assert stacked.supply is None
        assert "supply" not in stacked.summary_dict()["sites"]["t"]

    def test_one_battery_stack_matches_smooth_with_battery(self):
        """Open-loop battery dispatch is the legacy smoothing, bitwise."""
        trace = dippy_trace(n=700)
        spec = BatterySpec(
            capacity_mwh=60.0, max_power_mw=25.0,
            round_trip_efficiency=0.85, initial_charge_fraction=0.3,
        )
        legacy = smooth_with_battery(trace, spec, target_fraction=0.6)
        stack = SupplyStack(
            (
                BatteryDispatch(
                    capacity_mwh=60.0, max_power_mw=25.0,
                    efficiency=0.85, initial_charge_fraction=0.3,
                ),
            ),
            target_fraction=0.6,
        )
        evaluation = stack.evaluate_open_loop(trace)
        np.testing.assert_array_equal(
            legacy.output.values, evaluation.delivered
        )
        np.testing.assert_array_equal(
            legacy.state_of_charge_mwh, evaluation.soc_mwh
        )
        assert legacy.charged_mwh == pytest.approx(
            evaluation.charge_total_mwh
        )
        assert legacy.discharged_mwh == pytest.approx(
            evaluation.discharge_total_mwh
        )

    def test_vbsite_core_budget_series_accepts_stack(self):
        from repro.traces import Site

        trace = dippy_trace()
        site = VBSite(
            Site("t", "wind", 50.0, 5.0, trace.capacity_mw), trace,
            ClusterSpec(n_servers=10, server=ServerSpec(cores=40)),
        )
        assert site.core_budget_series() == site.core_budget_series(
            SupplyStack()
        )
        firmed = site.core_budget_series(battery_stack())
        assert len(firmed) == len(trace)
        # Firming fills dips: the worst step can only improve.
        assert min(firmed) >= min(site.core_budget_series())

    def test_apply_names_the_firmed_trace(self):
        trace = dippy_trace()
        firmed = battery_stack().apply(trace)
        assert firmed.name == "t+supply"
        assert firmed.capacity_mw == trace.capacity_mw
        assert len(firmed) == len(trace)

    def test_bad_target_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            SupplyStack((), target_fraction=0.0)
        with pytest.raises(ConfigurationError):
            supply_stack([], target_fraction=2.5)


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


class TestClosedLoop:
    def test_battery_discharges_and_cuts_evictions(self):
        """The acceptance property: fewer evictions, nonzero discharge."""
        trace = dippy_trace()
        requests = requests_for(len(trace), count=200)
        config = small_config()
        bare = Datacenter(config, trace).run(requests)
        backed = Datacenter(
            config, trace, supply=battery_stack()
        ).run(requests)
        assert backed.supply is not None
        assert backed.supply.discharge_total_mwh > 0.0
        assert (
            backed.columns.n_evicted.sum()
            < bare.columns.n_evicted.sum()
        )

    @pytest.mark.parametrize("power_model", ["linear", "server"])
    def test_engines_agree_under_closed_loop(self, power_model):
        trace = dippy_trace()
        requests = requests_for(len(trace), count=200)
        config = small_config(power_model=power_model)
        stack = battery_stack()
        event = Datacenter(config, trace, supply=stack).run(
            requests, engine="event"
        )
        dense = Datacenter(config, trace, supply=stack).run(
            requests, engine="dense"
        )
        for column in (
            "norm_power", "core_budget", "n_evicted", "out_bytes",
            "in_bytes",
        ):
            np.testing.assert_array_equal(
                getattr(event.columns, column),
                getattr(dense.columns, column),
            )
        np.testing.assert_array_equal(
            event.supply.soc_mwh, dense.supply.soc_mwh
        )
        np.testing.assert_array_equal(
            event.supply.delivered, dense.supply.delivered
        )

    def test_soc_bounded_over_the_run(self):
        trace = dippy_trace()
        stack = battery_stack(capacity_mwh=40.0, power_mw=20.0)
        result = Datacenter(small_config(), trace, supply=stack).run(
            requests_for(len(trace))
        )
        assert np.all(result.supply.soc_mwh >= -1e-12)
        assert np.all(result.supply.soc_mwh <= 40.0 + 1e-12)

    def test_grid_budget_respected_in_loop(self):
        trace = dippy_trace()
        stack = SupplyStack((PricedGridPower(budget_mwh=3.0),))
        result = Datacenter(small_config(), trace, supply=stack).run(
            requests_for(len(trace), count=200)
        )
        assert 0.0 < result.supply.grid_import_total_mwh <= 3.0 + 1e-9

    def test_summary_dict_carries_the_supply_block(self):
        trace = dippy_trace()
        result = Datacenter(
            small_config(), trace, supply=battery_stack()
        ).run(requests_for(len(trace)))
        block = result.summary_dict()["sites"]["t"]["supply"]
        from repro.sim import SUMMARY_SCHEMA

        assert set(block) == set(SUMMARY_SCHEMA["per_site_supply"])

    def test_open_mode_uses_the_precomputed_series(self):
        """Open mode budgets come from the firmed series, not demand."""
        trace = dippy_trace()
        stack = battery_stack()
        result = Datacenter(
            small_config(), trace, supply=stack, supply_mode="open"
        ).run(requests_for(len(trace)))
        expected = stack.evaluate_open_loop(trace)
        np.testing.assert_array_equal(
            result.columns.norm_power, expected.delivered
        )

    def test_unknown_supply_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Datacenter(
                small_config(), dippy_trace(),
                supply=battery_stack(), supply_mode="sideways",
            )

    def test_supply_counters_reach_obs(self):
        trace = dippy_trace()
        with obs.use(obs.MemorySink()) as mem:
            Datacenter(
                small_config(), trace, supply=battery_stack()
            ).run(requests_for(len(trace)))
        names = {m["name"] for m in mem.metrics()}
        assert {
            "supply.charge_mwh",
            "supply.discharge_mwh",
            "supply.curtailed_mwh",
            "supply.final_soc_mwh",
        } <= names


# ----------------------------------------------------------------------
# Scheduler and detailed executor integration
# ----------------------------------------------------------------------


def planning_setup(n=48, supply=None):
    grid = TimeGrid(START, timedelta(hours=1), n)
    rng = np.random.default_rng(5)
    values = np.clip(
        0.5 + 0.4 * np.sin(2 * np.pi * np.arange(n) / 24)
        + rng.normal(0, 0.05, n),
        0.0,
        1.0,
    )
    values[10:16] = 0.0
    traces = {
        "a": PowerTrace(grid, values, "a", "wind", 40.0),
        "b": PowerTrace(grid, values[::-1].copy(), "b", "wind", 40.0),
    }
    apps = [
        Application(i, 0, n, 10, VMType("T2", 2, 8.0), 1.0)
        for i in range(3)
    ]
    problem = problem_from_forecasts(
        grid, traces, {"a": 400, "b": 400}, apps,
        NoisyOracleForecaster(seed=0), supply=supply,
    )
    return problem, traces


class TestSchedulerIntegration:
    def test_empty_stack_leaves_capacities_unchanged(self):
        bare, _ = planning_setup()
        stacked, _ = planning_setup(supply=SupplyStack())
        for site_bare, site_stacked in zip(bare.sites, stacked.sites):
            np.testing.assert_array_equal(
                site_bare.capacity_cores, site_stacked.capacity_cores
            )

    def test_battery_firms_the_planning_capacities(self):
        bare, _ = planning_setup()
        firmed, _ = planning_setup(
            supply=battery_stack(capacity_mwh=80.0, power_mw=20.0)
        )
        for site_bare, site_firmed in zip(bare.sites, firmed.sites):
            assert (
                site_firmed.capacity_cores.min()
                >= site_bare.capacity_cores.min()
            )
        # Somewhere the battery lifted a dead forecast step.
        assert any(
            site_firmed.capacity_cores.sum()
            != site_bare.capacity_cores.sum()
            for site_bare, site_firmed in zip(bare.sites, firmed.sites)
        )

    def test_per_site_mapping_selects_stacks(self):
        stack = battery_stack(capacity_mwh=80.0, power_mw=20.0)
        mixed, _ = planning_setup(supply={"a": stack})
        bare, _ = planning_setup()
        np.testing.assert_array_equal(
            mixed.sites[1].capacity_cores, bare.sites[1].capacity_cores
        )


class TestDetailedExecutorIntegration:
    # The replay has one loop; both valid engine names must reach it.
    @pytest.mark.parametrize("engine", ["event", "dense"])
    def test_closed_loop_supply_threads_through(self, engine):
        stack = battery_stack(capacity_mwh=30.0, power_mw=15.0)
        problem, traces = planning_setup(supply=stack)
        placement = Placement(
            {0: {"a": 10}, 1: {"b": 10}, 2: {"a": 5, "b": 5}}
        )
        cluster = ClusterSpec(n_servers=10, server=ServerSpec(cores=40))
        result = simulate(
            problem, placement, traces, cluster=cluster,
            engine=engine, supply=stack,
        )
        assert set(result.supply) == {"a", "b"}
        per_site = result.summary_dict()["sites"]
        for name in ("a", "b"):
            assert result.supply[name].discharge_total_mwh >= 0.0
            assert np.all(
                result.supply[name].soc_mwh <= 30.0 + 1e-12
            )
            assert "supply" in per_site[name]


# ----------------------------------------------------------------------
# Spec and scenario plumbing
# ----------------------------------------------------------------------


class TestSupplySpec:
    def test_disabled_by_default(self):
        assert not SupplySpec().enabled
        assert SupplySpec().build().stateless
        assert not NO_SUPPLY.enabled

    def test_battery_power_defaults_to_four_hour_system(self):
        (battery,) = SupplySpec(battery_mwh=100.0).components()
        assert battery.max_power_mw == pytest.approx(25.0)

    def test_component_order_battery_then_grid(self):
        spec = SupplySpec(battery_mwh=10.0, grid_budget_mwh=5.0)
        battery, grid = spec.components()
        assert isinstance(battery, BatteryDispatch)
        assert isinstance(grid, PricedGridPower)

    def test_round_trip(self):
        spec = SupplySpec(
            battery_mwh=100.0, battery_power_mw=30.0,
            grid_budget_mwh=12.0, mode="open", target_fraction=0.7,
        )
        assert SupplySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            SupplySpec.from_dict({"flux_capacitor_gw": 1.21})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SupplySpec(mode="diagonal")
        with pytest.raises(ConfigurationError):
            SupplySpec(battery_mwh=-1.0)
        with pytest.raises(ConfigurationError):
            SupplySpec(grid_budget_mwh=-1.0)


class TestScenarioSupply:
    def scenario(self, **supply_kwargs):
        return Scenario(
            name="s",
            sites=("BE-wind",),
            grid=grid_days(START, 2),
            workload=WorkloadSpec(kind="vm_requests"),
            supply=SupplySpec(**supply_kwargs),
        )

    def test_supply_changes_the_content_hash(self):
        assert (
            self.scenario().content_hash()
            != self.scenario(battery_mwh=100.0).content_hash()
        )

    def test_round_trip_preserves_supply(self):
        scenario = self.scenario(battery_mwh=100.0, mode="open")
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_tolerates_missing_supply(self):
        data = self.scenario().to_dict()
        del data["supply"]
        assert Scenario.from_dict(data).supply == SupplySpec()

    def test_forecast_fragment_carries_supply(self):
        fragment = self.scenario(battery_mwh=9.0).forecast_fragment()
        assert fragment["supply"]["battery_mwh"] == 9.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _metric(out, label):
    match = re.search(
        rf"^{re.escape(label)}\s+([\d,.]+)", out, re.MULTILINE
    )
    assert match, f"no {label!r} row in:\n{out}"
    return float(match.group(1).replace(",", ""))


class TestSupplyCli:
    def test_battery_flag_cuts_evictions(self, capsys):
        from repro.cli import main

        base_args = [
            "simulate", "--kind", "wind", "--days", "3",
            "--seed", "5", "--no-cache",
        ]
        assert main(base_args) == 0
        bare_out = capsys.readouterr().out
        assert main(base_args + ["--battery-mwh", "800"]) == 0
        backed_out = capsys.readouterr().out

        assert "battery discharge MWh" not in bare_out
        assert _metric(backed_out, "battery discharge MWh") > 0.0
        assert _metric(backed_out, "VM evictions") < _metric(
            bare_out, "VM evictions"
        )

    def test_sweep_accepts_supply_flags(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep", "--mode", "simulate", "--sites", "BE-wind",
                "--days", "2", "--battery-mwh", "150",
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--manifest-dir", str(tmp_path / "manifests"),
            ]
        )
        assert code == 0
        assert "Sweep: 1 scenarios" in capsys.readouterr().out


class TestStateSnapshots:
    """Satellite contracts: state to_dict/from_dict + stable series."""

    def test_battery_state_round_trip(self):
        component = BatteryDispatch(10.0, 5.0, efficiency=0.9)
        state = component.initial_state()
        component.step(state, -3.0, 0.25)
        snapshot = state.to_dict()
        assert snapshot == {"soc_mwh": state.soc_mwh}
        clone = type(state).from_dict(snapshot)
        assert clone.soc_mwh == state.soc_mwh
        assert clone is not state

    def test_grid_state_round_trip(self):
        component = PricedGridPower(40.0, max_power_mw=2.0)
        state = component.initial_state()
        component.step(state, -1.0, 0.25)
        snapshot = state.to_dict()
        assert snapshot == {
            "remaining_mwh": state.remaining_mwh,
            "cost_usd": 0.0,
            "carbon_kg": 0.0,
            "virtual_mwh": 0.0,
        }
        clone = type(state).from_dict(snapshot)
        assert clone.remaining_mwh == state.remaining_mwh

    def test_evaluation_series_fields_are_the_layout(self):
        from repro.supply.stack import SupplyEvaluation

        assert SupplyEvaluation.SERIES_FIELDS == (
            "delivered",
            "soc_mwh",
            "charge_mwh",
            "discharge_mwh",
            "grid_import_mwh",
            "curtailed_mwh",
            "cost_usd",
            "carbon_kg",
        )
        assert SupplyEvaluation.__slots__ == (
            SupplyEvaluation.SERIES_FIELDS
        )
        evaluation = SupplyEvaluation(np.zeros(4))
        for name in SupplyEvaluation.SERIES_FIELDS:
            assert len(getattr(evaluation, name)) == 4


class TestSpanIdleFastPath:
    """A saturated stack is filled, not dispatched, step by step."""

    @staticmethod
    def run_counted(monkeypatch, config, trace, requests, stack):
        """Run the kernel, count its dispatches, check the dense oracle."""
        dispatched = []
        dispatch = SupplyDispatcher.dispatch

        def counted(dispatcher, step, demand_norm):
            dispatched.append(step)
            return dispatch(dispatcher, step, demand_norm)

        with monkeypatch.context() as mp:
            mp.setattr(SupplyDispatcher, "dispatch", counted)
            got = Datacenter(config, trace, supply=stack()).run(requests)
        want = Datacenter(config, trace, supply=stack()).run(
            requests, engine="dense"
        )
        for column in StepColumns.__slots__[1:]:
            np.testing.assert_array_equal(
                getattr(got.columns, column),
                getattr(want.columns, column),
                err_msg=column,
            )
        for name in SupplyEvaluation.SERIES_FIELDS:
            np.testing.assert_array_equal(
                getattr(got.supply, name), getattr(want.supply, name),
                err_msg=name,
            )
        return got, len(dispatched)

    def test_full_battery_under_surplus_returns_short_prefix(
        self, monkeypatch
    ):
        n = 20_000
        # 16 of the 80 cores run all year long: a constant 0.2 demand.
        vm_type = VMType("T2", 2, 8.0)
        requests = [
            VMRequest(i, 0, n, vm_type, VMClass.STABLE) for i in range(8)
        ]
        got, n_dispatched = self.run_counted(
            monkeypatch, small_config(), make_trace(np.full(n, 0.9)),
            requests,
            lambda: battery_stack(capacity_mwh=5.0, power_mw=50.0),
        )
        # The battery fills within a handful of steps; the run must not
        # grind through all 20k steps afterwards.
        assert n_dispatched < 50
        assert got.supply.final_soc_mwh == 5.0

    def test_empty_battery_under_deficit_returns_short_prefix(
        self, monkeypatch
    ):
        n = 20_000
        # 0.15 powers 12 of the 80 cores, which the admission cap holds
        # to 4 two-core VMs; the other 3 wait all year, so demand (0.175)
        # stays above generation behind an empty battery.
        vm_type = VMType("T2", 2, 8.0)
        requests = [
            VMRequest(i, 0, n, vm_type, VMClass.STABLE) for i in range(7)
        ]
        got, n_dispatched = self.run_counted(
            monkeypatch, small_config(queue_patience_steps=n),
            make_trace(np.full(n, 0.15)), requests,
            lambda: battery_stack(
                capacity_mwh=5.0, power_mw=50.0, initial_charge_fraction=0.0
            ),
        )
        assert n_dispatched < 50
        assert got.columns.queue_length[-1] == 3
        assert got.supply.discharge_total_mwh == 0.0

    def test_in_place_trace_change_is_seen(self):
        trace = make_trace(np.full(50, 0.6))
        dispatcher = SupplyStack(
            (PricedGridPower(1000.0),)
        ).dispatcher(trace)
        deliveries = [dispatcher.dispatch(t, 0.2) for t in range(10)]
        assert deliveries[0] == 0.6  # surplus: grid is a pass-through
        trace.values[:] = 0.0
        deliveries = [dispatcher.dispatch(t, 0.2) for t in range(10, 20)]
        # Base went dark: the deficit is now grid-covered demand, not
        # the old 0.6 pass-through.
        assert deliveries[0] == 0.2
