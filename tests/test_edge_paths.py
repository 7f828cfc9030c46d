"""Targeted edge-path tests across modules.

Each test pins down a subtle behaviour that a refactor could silently
break: slot arithmetic in climatology, home-site-dark arrivals in the
detailed executor, pause-mode interactions with the admission queue,
and forecast determinism across differently-named traces.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    EventKind,
    ServerSpec,
)
from repro.forecast import ClimatologyForecaster, NoisyOracleForecaster
from repro.sched import Placement, SchedulingProblem, SiteCapacity
from repro.sim import simulate
from repro.traces import PowerTrace
from repro.units import TimeGrid
from repro.workload import Application, VMClass, VMRequest, VMType

START = datetime(2020, 5, 1)


def sinusoidal_diurnal_trace(days=10, step_minutes=15):
    """A perfectly periodic diurnal trace (deterministic)."""
    per_day = int(24 * 60 / step_minutes)
    n = days * per_day
    hours = (np.arange(n) % per_day) * (step_minutes / 60.0)
    values = 0.5 + 0.5 * np.sin(2 * np.pi * hours / 24.0)
    grid = TimeGrid(START, timedelta(minutes=step_minutes), n)
    return PowerTrace(grid, np.clip(values, 0, 1), "diurnal", "solar")


class TestClimatologySlotArithmetic:
    def test_learns_periodic_pattern_exactly(self):
        trace = sinusoidal_diurnal_trace()
        model = ClimatologyForecaster()
        issue = 5 * 96
        forecast = model.forecast(trace, issue, 96)
        # A perfectly periodic trace is predicted exactly.
        np.testing.assert_allclose(
            forecast.values, trace.values[issue : issue + 96], atol=1e-9
        )

    def test_mid_day_issue_keeps_slots_aligned(self):
        trace = sinusoidal_diurnal_trace()
        model = ClimatologyForecaster()
        issue = 5 * 96 + 37  # not a day boundary
        forecast = model.forecast(trace, issue, 50)
        np.testing.assert_allclose(
            forecast.values, trace.values[issue : issue + 50], atol=1e-9
        )

    def test_history_days_window_alignment(self):
        trace = sinusoidal_diurnal_trace()
        model = ClimatologyForecaster(history_days=2)
        issue = 6 * 96 + 13
        forecast = model.forecast(trace, issue, 96)
        np.testing.assert_allclose(
            forecast.values, trace.values[issue : issue + 96], atol=1e-9
        )


class TestNoisyOracleIdentity:
    def test_same_values_different_name_different_noise(self):
        # The per-site seed derivation must key on the trace name so
        # co-located sites with identical output do not share errors.
        grid = TimeGrid(START, timedelta(minutes=15), 192)
        values = np.full(192, 0.5)
        a = PowerTrace(grid, values, "a", "wind")
        b = PowerTrace(grid, values, "b", "wind")
        model = NoisyOracleForecaster(seed=1)
        fa = model.forecast(a, 0, 96)
        fb = model.forecast(b, 0, 96)
        assert not np.array_equal(fa.values, fb.values)

    def test_base_seed_changes_errors(self):
        trace = sinusoidal_diurnal_trace()
        f1 = NoisyOracleForecaster(seed=1).forecast(trace, 0, 96)
        f2 = NoisyOracleForecaster(seed=2).forecast(trace, 0, 96)
        assert not np.array_equal(f1.values, f2.values)


class TestDetailedExecutorEdges:
    def test_arrival_at_dark_home_lands_at_sister(self):
        n = 6
        grid = TimeGrid(START, timedelta(hours=1), n)
        problem = SchedulingProblem(
            grid,
            (
                SiteCapacity("dark", 400, np.zeros(n)),
                SiteCapacity("lit", 400, np.full(n, 400.0)),
            ),
            (Application(0, 0, n, 5, VMType("T2", 2, 8.0), 1.0),),
            bytes_per_core=1.0,
        )
        placement = Placement({0: {"dark": 5, "lit": 0}})
        traces = {
            "dark": PowerTrace(grid, np.zeros(n), "dark", "wind"),
            "lit": PowerTrace(grid, np.ones(n), "lit", "wind"),
        }
        cluster = ClusterSpec(n_servers=10, server=ServerSpec(cores=40))
        result = simulate(
            problem, placement, traces, cluster=cluster
        )
        # VMs never started at dark, so landing at lit is a fresh
        # start (no migration bytes), but they must run somewhere.
        lit_records = result.records["lit"]
        assert lit_records[0].running_cores == 10
        assert result.homeless_vm_steps == 0
        assert result.total_transfer_gb() == 0.0


class TestPauseModeQueueInteraction:
    def test_paused_cores_block_new_admissions_under_cap(self):
        """Paused VMs keep their allocation, so the admission cap must
        count them — a power dip must not open capacity for newcomers
        that would strand the paused VMs."""
        grid = TimeGrid(START, timedelta(minutes=15), 8)
        # Power: full, dip, recover.
        values = np.array([1.0, 0.25, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0])
        trace = PowerTrace(grid, values, "t", "wind")
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=1, server=ServerSpec(cores=8)),
            admission_utilization=1.0,
            pause_degradable=True,
            queue_patience_steps=10,
        )
        vm_type = VMType("T4", 4, 16.0)
        first = [
            VMRequest(0, 0, 8, vm_type, VMClass.DEGRADABLE),
            VMRequest(1, 0, 8, vm_type, VMClass.DEGRADABLE),
        ]
        newcomer = [VMRequest(2, 1, 4, vm_type, VMClass.STABLE)]
        result = Datacenter(config, trace).run(first + newcomer)
        # During the dip one degradable VM pauses; the newcomer must
        # wait (allocated = 8 incl. paused) rather than steal the slot.
        events_vm2 = result.events.for_vm(2)
        assert events_vm2[0].kind is EventKind.QUEUE
        # Paused VM resumes once power returns.
        assert result.events.count(EventKind.RESUME) >= 1


class TestSchedulingProblemEdges:
    def test_single_site_problem_trivially_places(self):
        from repro.sched import GreedyScheduler, MIPScheduler

        n = 6
        grid = TimeGrid(START, timedelta(hours=1), n)
        problem = SchedulingProblem(
            grid,
            (SiteCapacity("only", 1000, np.full(n, 800.0)),),
            (Application(0, 0, n, 10, VMType("T2", 2, 8.0), 0.5),),
            bytes_per_core=1.0,
        )
        for scheduler in (GreedyScheduler(), MIPScheduler()):
            placement = scheduler.schedule(problem)
            assert placement.assignment[0] == {"only": 10}

    def test_app_with_one_step_duration(self):
        from repro.sched import MIPScheduler

        n = 4
        grid = TimeGrid(START, timedelta(hours=1), n)
        problem = SchedulingProblem(
            grid,
            (
                SiteCapacity("a", 1000, np.full(n, 800.0)),
                SiteCapacity("b", 1000, np.full(n, 700.0)),
            ),
            (Application(0, 2, 1, 4, VMType("T2", 2, 8.0), 1.0),),
            bytes_per_core=1.0,
        )
        placement = MIPScheduler().schedule(problem)
        placement.validate_complete(problem)
