"""Golden degenerate and closed-loop equality tests for the priced grid.

Pins the tentpole contracts of the carbon/price-aware supply layer:

- **Flat-budget degenerate case**: a constant-price, no-threshold,
  ``always``-policy :class:`PricedGridPower` is bit-identical to an
  unpriced one (a flat budget) — delivered series and simulation columns,
  across the step kernel and the dense oracle, open and closed loop,
  per-site and fleet — while additionally carrying the cost/carbon ledger
  (total cost == total imports x the constant price).  The step-kernel
  and dense-oracle legs each compare flat against priced; the fleet leg
  compares against the dense oracle.
- **Closed loop == dense**: the step-kernel closed loop — per-step
  dispatch, wakes only where needed, vectorized pinned stretches —
  reproduces the dense oracle bitwise (every column, the event log,
  every evaluation series, and the final component states) on a random
  trace and workload under every purchase policy.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    ServerSpec,
)
from repro.cluster.datacenter import StepColumns
from repro.cluster.kernel import StepKernel
from repro.sim import simulate
from repro.sim.fleet import FleetSite
from repro.supply import (
    BatteryDispatch,
    PricedGridPower,
    SupplyDispatcher,
    SupplyEvaluation,
    SupplyStack,
)
from repro.traces import PowerTrace
from repro.units import TimeGrid
from repro.workload import VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)

#: Evaluation series shared by flat and priced grids (the priced
#: component adds cost_usd / carbon_kg on top, checked separately).
ENERGY_SERIES = (
    "delivered", "soc_mwh", "charge_mwh", "discharge_mwh",
    "grid_import_mwh", "curtailed_mwh",
)


def make_trace(values, capacity_mw=100.0, step_minutes=15, name="t"):
    grid = TimeGrid(
        START, timedelta(minutes=step_minutes), len(values)
    )
    return PowerTrace(
        grid, np.asarray(values, dtype=float), name, "wind", capacity_mw
    )


def dippy_trace(n=400, capacity_mw=100.0, seed=7, name="t"):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = np.clip(
        0.55 + 0.4 * np.sin(2 * np.pi * t / 96) + rng.normal(0, 0.1, n),
        0.0,
        1.0,
    )
    values[(t % 120) < 16] = 0.0
    return make_trace(values, capacity_mw, name=name)


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


PRICE = 40.0
CARBON = 230.0


def flat_stack(n, budget=25.0, max_power=None, battery=True):
    parts = []
    if battery:
        parts.append(BatteryDispatch(30.0, 10.0))
    parts.append(
        PricedGridPower(budget_mwh=budget, max_power_mw=max_power)
    )
    return SupplyStack(tuple(parts))


def priced_stack(n, budget=25.0, max_power=None, battery=True):
    """The degenerate twin: constant price, no thresholds, always-buy."""
    parts = []
    if battery:
        parts.append(BatteryDispatch(30.0, 10.0))
    parts.append(
        PricedGridPower(
            budget_mwh=budget,
            max_power_mw=max_power,
            price_per_mwh=np.full(n, PRICE),
            carbon_per_mwh=np.full(n, CARBON),
            policy="always",
        )
    )
    return SupplyStack(tuple(parts))


def assert_energy_series_equal(flat_ev, priced_ev):
    for name in ENERGY_SERIES:
        np.testing.assert_array_equal(
            getattr(flat_ev, name), getattr(priced_ev, name),
            err_msg=name,
        )


def assert_cost_ledger(priced_ev):
    """Constant-price cost identity: cost == imports x price."""
    assert np.isclose(
        priced_ev.cost_usd.sum(),
        priced_ev.grid_import_mwh.sum() * PRICE,
    )
    assert np.isclose(
        priced_ev.carbon_kg.sum(),
        priced_ev.grid_import_mwh.sum() * CARBON,
    )
    # Cost lands exactly on the import steps.
    np.testing.assert_array_equal(
        priced_ev.cost_usd > 0.0, priced_ev.grid_import_mwh > 0.0
    )


class TestFlatBudgetDegenerate:
    """Constant-price always-policy PricedGridPower == unpriced one."""

    def test_open_loop_bitwise(self):
        trace = dippy_trace()
        n = len(trace)
        flat = flat_stack(n).evaluate_open_loop(trace)
        priced = priced_stack(n).evaluate_open_loop(trace)
        assert_energy_series_equal(flat, priced)
        assert_cost_ledger(priced)

    @pytest.mark.parametrize("engine", ["event", "dense"])
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_simulation_bitwise(self, engine, mode):
        trace = dippy_trace()
        n = len(trace)
        requests = requests_for(n, count=200)
        config = small_config()
        flat = Datacenter(
            config, trace, supply=flat_stack(n), supply_mode=mode
        ).run(requests, engine=engine)
        priced = Datacenter(
            config, trace, supply=priced_stack(n), supply_mode=mode
        ).run(requests, engine=engine)
        for column in (
            "norm_power", "core_budget", "running_cores", "n_evicted",
            "out_bytes", "in_bytes", "queue_length",
        ):
            np.testing.assert_array_equal(
                getattr(flat.columns, column),
                getattr(priced.columns, column),
                err_msg=column,
            )
        assert_energy_series_equal(flat.supply, priced.supply)
        assert priced.supply.grid_import_total_mwh > 0.0
        assert_cost_ledger(priced.supply)

    def test_power_cap_stays_degenerate(self):
        """A finite max_power_mw binds identically on both paths."""
        trace = dippy_trace()
        n = len(trace)
        requests = requests_for(n, count=200)
        flat = Datacenter(
            small_config(), trace,
            supply=flat_stack(n, max_power=4.0, battery=False),
        ).run(requests)
        priced = Datacenter(
            small_config(), trace,
            supply=priced_stack(n, max_power=4.0, battery=False),
        ).run(requests)
        assert_energy_series_equal(flat.supply, priced.supply)
        step_hours = trace.grid.step_hours
        assert priced.supply.grid_import_mwh.max() <= (
            4.0 * step_hours + 1e-12
        )

    def test_fleet_bitwise(self):
        """The fleet engine replays the degenerate case too."""
        n = 400
        config = small_config()
        traces = [
            dippy_trace(n, capacity_mw=80.0 + 15 * i, seed=11 + i,
                        name=f"s{i}")
            for i in range(3)
        ]
        requests = [
            requests_for(n, count=150, seed=5 + i) for i in range(3)
        ]

        def fleet(stack_for):
            return simulate(
                [
                    FleetSite(
                        name=trace.name,
                        config=config,
                        trace=trace,
                        requests=reqs,
                        supply=stack_for(n),
                        supply_mode="closed",
                    )
                    for trace, reqs in zip(traces, requests)
                ]
            )

        flat = fleet(flat_stack)
        priced = fleet(priced_stack)
        solo = {
            trace.name: Datacenter(
                config, trace, supply=priced_stack(n)
            ).run(reqs, engine="dense")
            for trace, reqs in zip(traces, requests)
        }
        for name in flat:
            assert_energy_series_equal(
                flat[name].supply, priced[name].supply
            )
            assert_cost_ledger(priced[name].supply)
            # Fleet == per-site dense oracle, cost series included.
            for series in ENERGY_SERIES + ("cost_usd", "carbon_kg"):
                np.testing.assert_array_equal(
                    getattr(priced[name].supply, series),
                    getattr(solo[name].supply, series),
                    err_msg=series,
                )


def random_trace(n, seed, capacity_mw=80.0, name="r"):
    rng = np.random.default_rng(seed)
    return make_trace(rng.uniform(0.0, 1.0, n), capacity_mw, name=name)


def priced_component(policy, n, seed, budget=60.0):
    """An unlimited-power priced grid with per-step random signals."""
    rng = np.random.default_rng(seed)
    kwargs = dict(
        budget_mwh=budget,
        max_power_mw=None,
        price_per_mwh=rng.uniform(10.0, 120.0, n),
        carbon_per_mwh=rng.uniform(100.0, 300.0, n),
        policy=policy,
    )
    if policy == "threshold":
        kwargs.update(price_threshold=60.0, carbon_threshold=250.0)
    if policy == "dvb":
        kwargs.update(price_threshold=90.0, dvb_capacity_mwh=15.0)
    return PricedGridPower(**kwargs)


def spied_run(monkeypatch, datacenter, requests, engine):
    """``datacenter.run`` with its dispatches and kernel wakes logged.

    Returns the result, the run's dispatcher, one ``(step, pinned)``
    pair per dispatch (``pinned``: the stack was pinned for the step's
    balance sign), and one ``(step, event_due)`` pair per kernel wake.
    """
    dispatchers, dispatched, wakes = [], [], []
    dispatch, step_wake = SupplyDispatcher.dispatch, StepKernel.step_wake
    values = datacenter.power_trace.values

    def logged_dispatch(dispatcher, step, demand_norm):
        if not dispatchers:
            dispatchers.append(dispatcher)
        capacity = dispatcher.capacity_mw
        surplus = (
            float(values[step]) * capacity
            >= max(demand_norm, 0.0) * capacity
        )
        dispatched.append((step, dispatcher.pinned(surplus)))
        return dispatch(dispatcher, step, demand_norm)

    def logged_wake(kernel, step, budget):
        wakes.append((step, kernel.next_event() <= step))
        step_wake(kernel, step, budget)

    with monkeypatch.context() as mp:
        mp.setattr(SupplyDispatcher, "dispatch", logged_dispatch)
        mp.setattr(StepKernel, "step_wake", logged_wake)
        result = datacenter.run(requests, engine=engine)
    return result, dispatchers[0], dispatched, wakes


class TestScalarBatchedProperty:
    """The closed-loop engine == per-step dispatch, under every policy.

    :meth:`Datacenter.advance` dispatches live steps one at a time,
    wakes the kernel only at steps that need it, and fills pinned
    stretches vectorized; the dense oracle dispatches and executes
    every step.  A random trace with dead and full-output steps and a
    random VM workload walk all three paths under each purchase policy.
    """

    @pytest.mark.parametrize("policy", ["always", "threshold", "dvb"])
    def test_closed_loop_matches_dense(self, policy, monkeypatch):
        n = 600
        rng = np.random.default_rng(10)
        # Dead and full-output steps put the clipped delivery on the
        # [0, 1] edges, where the strict/non-strict wake tests differ.
        values = rng.uniform(0.0, 1.0, n)
        values[rng.random(n) < 0.1] = 0.0
        values[rng.random(n) < 0.1] = 1.0
        trace = make_trace(values, capacity_mw=60.0)
        requests = requests_for(n, count=150, seed=12, cores=6)

        def run(engine):
            stack = SupplyStack((
                BatteryDispatch(30.0, 10.0),
                priced_component(policy, n, seed=20, budget=40.0),
            ))
            datacenter = Datacenter(small_config(), trace, supply=stack)
            return spied_run(monkeypatch, datacenter, requests, engine)

        got, got_dispatcher, dispatched, wakes = run("event")
        want, want_dispatcher, _, _ = run("dense")
        for column in StepColumns.__slots__[1:]:
            np.testing.assert_array_equal(
                getattr(got.columns, column),
                getattr(want.columns, column),
                err_msg=column,
            )
        assert list(got.events) == list(want.events)
        for name in SupplyEvaluation.SERIES_FIELDS:
            np.testing.assert_array_equal(
                getattr(got.supply, name), getattr(want.supply, name),
                err_msg=name,
            )
        for got_state, want_state in zip(
            got_dispatcher.states, want_dispatcher.states
        ):
            assert got_state.to_dict() == want_state.to_dict()
        # The run took every path: a wake with no event due (a budget
        # crossing), a dispatched step that was no wake, and a pinned
        # stretch filled without dispatch.
        woken = {step for step, _ in wakes}
        assert not all(due for _, due in wakes)
        assert {step for step, _ in dispatched} - woken
        assert len(dispatched) < n
        # A step the stack is pinned for is filled, or it wakes.
        assert not [
            step for step, pinned in dispatched
            if pinned and step not in woken
        ]
        # The grid both bought and ran dry.
        assert 0.0 < want.supply.grid_import_mwh.sum()
        assert want_dispatcher.states[1].remaining_mwh == 0.0

    def test_policies_actually_diverge(self):
        """Guard: the three policies buy different energy, so the
        bitwise equalities above exercise three distinct paths."""
        n = 160
        trace = random_trace(n, seed=10, capacity_mw=50.0)
        totals = {}
        for policy in ("always", "threshold", "dvb"):
            # Budget big enough that the policy, not exhaustion, binds.
            stack = SupplyStack(
                (priced_component(policy, n, seed=20, budget=6000.0),)
            )
            d = stack.dispatcher(trace)
            for t in range(n):
                d.dispatch(t, 1.0)
            totals[policy] = d.evaluation.grid_import_mwh.sum()
        assert totals["always"] > totals["threshold"] > 0.0
        assert totals["always"] > totals["dvb"] > 0.0
