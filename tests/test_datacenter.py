"""Integration tests for the single-site Datacenter simulator."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    EventKind,
    ServerSpec,
)
from repro.errors import ConfigurationError
from repro.traces import PowerTrace, synthesize_wind
from repro.units import TimeGrid, grid_days
from repro.workload import (
    VMClass,
    VMRequest,
    VMType,
    generate_vm_requests,
    workload_matched_to_power,
)

START = datetime(2020, 5, 1)


def constant_trace(value, n=10, capacity=1.0):
    grid = TimeGrid(START, timedelta(minutes=15), n)
    return PowerTrace(grid, np.full(n, value), "t", "wind", capacity)


def step_trace(values):
    grid = TimeGrid(START, timedelta(minutes=15), len(values))
    return PowerTrace(grid, np.array(values, dtype=float), "t", "wind")


def small_config(**overrides):
    defaults = dict(
        cluster=ClusterSpec(n_servers=4, server=ServerSpec(cores=10)),
        queue_patience_steps=100,
    )
    defaults.update(overrides)
    return DatacenterConfig(**defaults)


def request(vm_id, arrival, lifetime, cores=2, memory_gib=8.0,
            vm_class=VMClass.STABLE):
    return VMRequest(
        vm_id, arrival, lifetime, VMType(f"T{cores}", cores, memory_gib),
        vm_class,
    )


class TestBasicLifecycle:
    def test_admit_run_complete(self):
        config = small_config()
        dc = Datacenter(config, constant_trace(1.0, 10))
        result = dc.run([request(0, 1, 3)])
        assert result.events.count(EventKind.ADMIT) == 1
        assert result.events.count(EventKind.COMPLETE) == 1
        complete = result.events.of_kind(EventKind.COMPLETE)[0]
        assert complete.step == 4  # arrived 1, ran 3 full steps
        assert result.records[5].allocated_cores == 0

    def test_no_power_queues_vm(self):
        config = small_config()
        dc = Datacenter(config, step_trace([0.0] * 5 + [1.0] * 5))
        result = dc.run([request(0, 0, 3)])
        assert result.events.count(EventKind.QUEUE) == 1
        launches = result.events.of_kind(EventKind.LAUNCH)
        assert len(launches) == 1
        assert launches[0].step == 5
        assert launches[0].bytes_moved == 8 * 2**30

    def test_launch_counts_as_in_migration(self):
        config = small_config()
        dc = Datacenter(config, step_trace([0.0, 1.0, 1.0, 1.0, 1.0]))
        result = dc.run([request(0, 0, 2)])
        assert result.in_bytes_series()[1] == 8 * 2**30
        assert result.out_bytes_series().sum() == 0.0

    def test_immediate_admit_moves_no_bytes(self):
        config = small_config()
        dc = Datacenter(config, constant_trace(1.0, 5))
        result = dc.run([request(0, 0, 2)])
        assert result.in_bytes_series().sum() == 0.0
        assert result.out_bytes_series().sum() == 0.0

    def test_queue_patience_expiry(self):
        config = small_config(queue_patience_steps=2)
        dc = Datacenter(config, constant_trace(0.0, 6))
        result = dc.run([request(0, 0, 2)])
        assert result.events.count(EventKind.REJECT) == 1
        assert result.events.count(EventKind.LAUNCH) == 0

    def test_arrival_beyond_grid_ignored(self):
        config = small_config()
        dc = Datacenter(config, constant_trace(1.0, 5))
        result = dc.run([request(0, 99, 2)])
        assert len(result.events) == 0


class TestPowerDrivenEviction:
    def test_power_drop_evicts(self):
        config = small_config(admission_utilization=1.0)
        # 40 cores at full power; fill 20 cores, then drop power to 0.25
        # (10 cores) -> must evict >= 10 cores worth of VMs.
        trace = step_trace([1.0, 1.0, 0.25, 0.25, 0.25])
        dc = Datacenter(config, trace)
        requests = [request(i, 0, 5, cores=2) for i in range(10)]
        result = dc.run(requests)
        evicted_cores = sum(
            2 for _ in result.events.of_kind(EventKind.EVICT)
        )
        assert evicted_cores >= 10
        assert result.records[2].running_cores <= 10
        out = result.out_bytes_series()
        assert out[2] > 0 and out[:2].sum() == 0

    def test_eviction_bytes_equal_memory(self):
        config = small_config(admission_utilization=1.0)
        trace = step_trace([1.0, 0.0, 0.0])
        dc = Datacenter(config, trace)
        result = dc.run([request(0, 0, 5, cores=2, memory_gib=8.0)])
        assert result.out_bytes_series()[1] == 8 * 2**30
        vm_events = result.events.for_vm(0)
        kinds = [e.kind for e in vm_events]
        assert kinds == [EventKind.ADMIT, EventKind.EVICT]

    def test_minor_dip_absorbed_by_unallocated_cores(self):
        # Paper's key observation: at 70% admission, a dip smaller than
        # the headroom causes no migration.
        config = small_config(admission_utilization=0.5)
        trace = step_trace([1.0, 1.0, 0.7, 0.7, 0.7])
        dc = Datacenter(config, trace)
        requests = [request(i, 0, 5, cores=2) for i in range(10)]
        result = dc.run(requests)
        # Cap admits 20 cores; power drop to 0.7 (28 cores) > 20.
        assert result.events.count(EventKind.EVICT) == 0
        assert result.out_bytes_series().sum() == 0.0

    def test_deep_dip_forces_migration(self):
        config = small_config(admission_utilization=0.5)
        trace = step_trace([1.0, 1.0, 0.25, 0.25])
        dc = Datacenter(config, trace)
        requests = [request(i, 0, 5, cores=2) for i in range(10)]
        result = dc.run(requests)
        # 20 admitted cores, budget now 10 -> evict half.
        assert result.events.count(EventKind.EVICT) >= 5

    def test_pause_degradable_avoids_traffic(self):
        config = small_config(
            admission_utilization=1.0, pause_degradable=True
        )
        trace = step_trace([1.0, 0.25, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0])
        dc = Datacenter(config, trace)
        requests = [
            request(i, 0, 3, cores=2, vm_class=VMClass.DEGRADABLE)
            for i in range(10)
        ]
        result = dc.run(requests)
        assert result.events.count(EventKind.EVICT) == 0
        assert result.events.count(EventKind.PAUSE) >= 5
        assert result.out_bytes_series().sum() == 0.0
        # Power returns at step 3 -> paused VMs resume.
        assert result.events.count(EventKind.RESUME) >= 5

    def test_paused_vm_makes_no_progress(self):
        config = small_config(
            admission_utilization=1.0, pause_degradable=True
        )
        # Power: on for 1 step, off for 3, on again.
        trace = step_trace([1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        dc = Datacenter(config, trace)
        result = dc.run(
            [request(0, 0, 3, cores=2, vm_class=VMClass.DEGRADABLE)]
        )
        complete = result.events.of_kind(EventKind.COMPLETE)
        assert len(complete) == 1
        # Ran step 0, paused steps 1-3, resumed 4, needs 2 more steps.
        assert complete[0].step == 6

    def test_stable_vm_never_paused(self):
        config = small_config(
            admission_utilization=1.0, pause_degradable=True
        )
        trace = step_trace([1.0, 0.0, 0.0])
        dc = Datacenter(config, trace)
        result = dc.run([request(0, 0, 5, vm_class=VMClass.STABLE)])
        assert result.events.count(EventKind.PAUSE) == 0
        assert result.events.count(EventKind.EVICT) == 1


class TestAccountingInvariants:
    def _run_random(self, **config_overrides):
        grid = grid_days(START, 3)
        trace = synthesize_wind(grid, seed=3, name="site")
        config = DatacenterConfig(
            cluster=ClusterSpec(n_servers=20, server=ServerSpec(cores=40)),
            **config_overrides,
        )
        workload = workload_matched_to_power(
            float(trace.values.mean()), config.cluster.total_cores
        )
        requests = generate_vm_requests(grid, workload, seed=4)
        return Datacenter(config, trace).run(requests)

    def test_running_never_exceeds_budget(self):
        result = self._run_random()
        for record in result.records:
            assert record.running_cores <= record.core_budget

    def test_allocated_never_exceeds_total(self):
        result = self._run_random()
        total = result.config.cluster.total_cores
        for record in result.records:
            assert 0 <= record.allocated_cores <= total
            assert record.running_cores <= record.allocated_cores

    def test_event_counts_match_records(self):
        result = self._run_random()
        assert result.events.count(EventKind.EVICT) == sum(
            r.n_evicted for r in result.records
        )
        assert result.events.count(EventKind.LAUNCH) == sum(
            r.n_launched for r in result.records
        )
        assert result.events.count(EventKind.ADMIT) == sum(
            r.n_admitted for r in result.records
        )

    def test_traffic_matches_events(self):
        result = self._run_random()
        assert result.out_bytes_series().sum() == pytest.approx(
            result.events.bytes_of_kind(EventKind.EVICT)
        )
        assert result.in_bytes_series().sum() == pytest.approx(
            result.events.bytes_of_kind(EventKind.LAUNCH)
        )

    def test_every_vm_fully_accounted(self):
        result = self._run_random()
        # Each VM: admitted xor queued at first touch.
        first_touch: dict[int, EventKind] = {}
        for event in result.events:
            first_touch.setdefault(event.vm_id, event.kind)
        assert all(
            kind in (EventKind.ADMIT, EventKind.QUEUE)
            for kind in first_touch.values()
        )

    def test_pause_mode_invariants(self):
        result = self._run_random(pause_degradable=True)
        assert result.events.count(EventKind.RESUME) <= result.events.count(
            EventKind.PAUSE
        )
        for record in result.records:
            assert record.running_cores <= record.core_budget

    def test_server_power_model_runs(self):
        result = self._run_random(power_model="server")
        for record in result.records:
            assert record.running_cores <= record.core_budget

    def test_static_admission_variant(self):
        result = self._run_random(power_relative_admission=False)
        cap = int(0.70 * result.config.cluster.total_cores)
        for record in result.records:
            assert record.allocated_cores <= max(
                cap, record.allocated_cores
            )  # smoke: runs to completion


class TestSimulationResultMetrics:
    def test_silent_fraction_perfect_when_power_constant(self):
        config = small_config()
        dc = Datacenter(config, constant_trace(0.8, 20))
        result = dc.run([request(0, 0, 3)])
        assert result.power_changes_without_migration_fraction() == 1.0

    def test_wan_fraction_zero_without_migrations(self):
        config = small_config()
        dc = Datacenter(config, constant_trace(1.0, 20))
        result = dc.run([request(0, 0, 3)])
        assert result.migration_active_fraction() == 0.0

    def test_gb_series_unit(self):
        config = small_config(admission_utilization=1.0)
        dc = Datacenter(config, step_trace([1.0, 0.0, 0.0]))
        result = dc.run([request(0, 0, 5, memory_gib=8.0)])
        assert result.out_gb_series()[1] == pytest.approx(
            8 * 2**30 / 1e9
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DatacenterConfig(allocation="magic")
        with pytest.raises(ConfigurationError):
            DatacenterConfig(power_model="fusion")
        with pytest.raises(ConfigurationError):
            DatacenterConfig(queue_patience_steps=-1)
