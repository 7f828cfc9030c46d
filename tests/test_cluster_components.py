"""Tests for cluster building blocks: specs, servers, VMs, policies,
admission, power models, and the eviction planner."""

from __future__ import annotations

import pytest

from repro.cluster import (
    AdmissionControl,
    BestFit,
    ClusterSpec,
    EvictionOrder,
    EvictionPlanner,
    FirstFit,
    LinearCorePower,
    Server,
    ServerGranularPower,
    ServerSpec,
    VM,
    VMState,
    WorstFit,
    make_policy,
)
from repro.cluster.migration import migration_bytes
from repro.errors import AllocationError, CapacityError, ConfigurationError
from repro.workload import VMClass, VMRequest, VMType


def make_vm(vm_id=0, cores=4, memory_gib=16.0, vm_class=VMClass.STABLE,
            lifetime=10):
    vm_type = VMType(f"T{cores}", cores, memory_gib)
    return VM(VMRequest(vm_id, 0, lifetime, vm_type, vm_class))


class TestSpecs:
    def test_server_spec_defaults_match_paper(self):
        spec = ServerSpec()
        assert spec.cores == 40
        assert spec.memory_gib == 512.0

    def test_cluster_spec_defaults_match_paper(self):
        cluster = ClusterSpec()
        assert cluster.n_servers == 700
        assert cluster.total_cores == 28000

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(cores=0)
        with pytest.raises(ConfigurationError):
            ServerSpec(memory_gib=-1)
        with pytest.raises(ConfigurationError):
            ServerSpec(idle_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(n_servers=0)

    def test_core_power_partition(self):
        spec = ServerSpec(max_power_w=400.0, idle_fraction=0.3, cores=40)
        # idle + all cores == max power.
        total = 400.0 * 0.3 + spec.core_power_w * 40
        assert total == pytest.approx(400.0)


class TestServer:
    def test_host_and_release(self):
        server = Server(0, ServerSpec())
        vm = make_vm(cores=8)
        server.host(vm)
        assert server.allocated_cores == 8
        assert server.free_cores == 32
        assert vm.state is VMState.RUNNING
        assert vm.server_id == 0
        server.release(vm)
        assert server.is_empty
        assert server.allocated_cores == 0

    def test_capacity_enforced(self):
        server = Server(0, ServerSpec(cores=8))
        server.host(make_vm(0, cores=8))
        with pytest.raises(CapacityError):
            server.host(make_vm(1, cores=1))

    def test_memory_enforced(self):
        server = Server(0, ServerSpec(cores=40, memory_gib=16.0))
        with pytest.raises(CapacityError):
            server.host(make_vm(0, cores=1, memory_gib=32.0))

    def test_double_host_rejected(self):
        server = Server(0, ServerSpec())
        vm = make_vm()
        server.host(vm)
        with pytest.raises(AllocationError):
            server.host(vm)

    def test_release_unknown_rejected(self):
        server = Server(0, ServerSpec())
        with pytest.raises(AllocationError):
            server.release(make_vm())

    def test_running_vms_filter(self):
        server = Server(0, ServerSpec())
        stable = make_vm(0, vm_class=VMClass.STABLE)
        degradable = make_vm(1, vm_class=VMClass.DEGRADABLE)
        server.host(stable)
        server.host(degradable)
        degradable.pause()
        assert [v.vm_id for v in server.running_vms()] == [0]


class TestVMLifecycle:
    def test_initial_state(self):
        vm = make_vm(lifetime=5)
        assert vm.state is VMState.PENDING
        assert vm.remaining_steps == 5

    def test_place_evict_cycle(self):
        vm = make_vm()
        vm.place(3)
        assert vm.state is VMState.RUNNING
        vm.evict()
        assert vm.state is VMState.MIGRATED_OUT
        assert vm.migrations == 1
        vm.place(5)  # re-placed at another site
        assert vm.state is VMState.RUNNING

    def test_stable_cannot_pause(self):
        vm = make_vm(vm_class=VMClass.STABLE)
        vm.place(0)
        with pytest.raises(AllocationError):
            vm.pause()

    def test_degradable_pause_resume(self):
        vm = make_vm(vm_class=VMClass.DEGRADABLE)
        vm.place(0)
        vm.pause()
        assert vm.state is VMState.PAUSED
        vm.resume()
        assert vm.state is VMState.RUNNING

    def test_invalid_transitions(self):
        vm = make_vm()
        with pytest.raises(AllocationError):
            vm.evict()  # not running
        with pytest.raises(AllocationError):
            vm.resume()  # not paused
        vm.place(0)
        with pytest.raises(AllocationError):
            vm.place(1)  # already running

    def test_tick_counts_down_and_completes(self):
        vm = make_vm(lifetime=2)
        vm.place(0)
        assert vm.tick() is False
        assert vm.remaining_steps == 1
        assert vm.tick() is True
        assert vm.state is VMState.COMPLETED

    def test_tick_ignores_non_running(self):
        vm = make_vm(vm_class=VMClass.DEGRADABLE, lifetime=3)
        vm.place(0)
        vm.pause()
        assert vm.tick() is False
        assert vm.remaining_steps == 3


class TestAllocationPolicies:
    def _servers(self, frees):
        servers = []
        for i, used in enumerate(frees):
            server = Server(i, ServerSpec(cores=40))
            if used:
                server.host(make_vm(vm_id=100 + i, cores=used))
            servers.append(server)
        return servers

    def test_bestfit_prefers_tightest(self):
        servers = self._servers([0, 30, 20])  # free: 40, 10, 20
        chosen = BestFit().choose(servers, make_vm(cores=8))
        assert chosen.server_id == 1

    def test_firstfit_prefers_lowest_id(self):
        servers = self._servers([0, 30, 20])
        chosen = FirstFit().choose(servers, make_vm(cores=8))
        assert chosen.server_id == 0

    def test_worstfit_prefers_emptiest(self):
        servers = self._servers([10, 30, 20])
        chosen = WorstFit().choose(servers, make_vm(cores=8))
        assert chosen.server_id == 0

    def test_policies_return_none_when_full(self):
        servers = self._servers([40, 40])
        for policy in (BestFit(), FirstFit(), WorstFit()):
            assert policy.choose(servers, make_vm(cores=1)) is None

    def test_make_policy(self):
        assert isinstance(make_policy("bestfit"), BestFit)
        assert isinstance(make_policy("FIRSTFIT"), FirstFit)
        with pytest.raises(ConfigurationError):
            make_policy("quantum")


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionControl(0)
        with pytest.raises(ConfigurationError):
            AdmissionControl(100, target_utilization=0.0)

    def test_static_cap(self):
        admission = AdmissionControl(1000, 0.70)
        assert admission.core_cap() == 700
        assert admission.admits(make_vm(cores=10), 690)
        assert not admission.admits(make_vm(cores=11), 690)

    def test_power_relative_cap(self):
        admission = AdmissionControl(1000, 0.70)
        assert admission.core_cap(500) == 350
        assert admission.admits(make_vm(cores=10), 340, 500)
        assert not admission.admits(make_vm(cores=11), 340, 500)

    def test_cap_never_exceeds_total(self):
        admission = AdmissionControl(1000, 0.70)
        assert admission.core_cap(5000) == 700

    def test_headroom_nonnegative(self):
        admission = AdmissionControl(1000, 0.70)
        assert admission.headroom_cores(900) == 0
        assert admission.headroom_cores(100, 500) == 250


class TestPowerModels:
    def test_linear_budget(self):
        cluster = ClusterSpec(n_servers=10, server=ServerSpec(cores=40))
        model = LinearCorePower(cluster)
        assert model.core_budget(1.0) == 400
        assert model.core_budget(0.5) == 200
        assert model.core_budget(0.0) == 0

    def test_linear_floors(self):
        cluster = ClusterSpec(n_servers=1, server=ServerSpec(cores=40))
        assert LinearCorePower(cluster).core_budget(0.999) == 39

    def test_linear_range_check(self):
        cluster = ClusterSpec(n_servers=1)
        with pytest.raises(ConfigurationError):
            LinearCorePower(cluster).core_budget(-0.1)
        with pytest.raises(ConfigurationError):
            LinearCorePower(cluster).core_budget(1.5)

    def test_server_granular_full_power(self):
        cluster = ClusterSpec(n_servers=10, server=ServerSpec(cores=40))
        model = ServerGranularPower(cluster)
        assert model.core_budget(1.0) == 400

    def test_server_granular_idle_tax(self):
        # With idle overhead, half power yields *fewer* cores than half
        # the fleet's cores: idle draw of powered servers eats budget.
        cluster = ClusterSpec(
            n_servers=10, server=ServerSpec(cores=40, idle_fraction=0.3)
        )
        granular = ServerGranularPower(cluster).core_budget(0.5)
        linear = LinearCorePower(cluster).core_budget(0.5)
        assert granular <= linear

    def test_server_granular_zero(self):
        cluster = ClusterSpec(n_servers=10)
        assert ServerGranularPower(cluster).core_budget(0.0) == 0


class TestEvictionPlanner:
    def _loaded_servers(self, n_servers=4, vms_per_server=2, cores=4):
        servers = [Server(i, ServerSpec(cores=40)) for i in range(n_servers)]
        vm_id = 0
        for server in servers:
            for _ in range(vms_per_server):
                server.host(make_vm(vm_id, cores=cores))
                vm_id += 1
        return servers

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EvictionPlanner(0)

    def test_no_eviction_when_not_needed(self):
        planner = EvictionPlanner(4)
        migrate, pause = planner.plan(self._loaded_servers(), 0)
        assert migrate == [] and pause == []

    def test_frees_enough_cores(self):
        servers = self._loaded_servers(4, 2, 4)  # 32 cores allocated
        planner = EvictionPlanner(4)
        migrate, pause = planner.plan(servers, 10)
        assert sum(vm.cores for vm in migrate + pause) >= 10

    def test_round_robin_spreads_across_servers(self):
        servers = self._loaded_servers(4, 2, 4)
        planner = EvictionPlanner(4)
        migrate, _ = planner.plan(servers, 16)  # needs 4 victims
        hosts = [vm.server_id for vm in migrate]
        assert len(set(hosts)) == 4  # one victim per server first lap

    def test_rotor_persists_between_calls(self):
        servers = self._loaded_servers(4, 2, 4)
        planner = EvictionPlanner(4)
        first, _ = planner.plan(servers, 4)
        second, _ = planner.plan(servers, 4)
        assert first[0].server_id != second[0].server_id

    def test_largest_cores_order(self):
        server = Server(0, ServerSpec(cores=40))
        server.host(make_vm(0, cores=2))
        server.host(make_vm(1, cores=16))
        planner = EvictionPlanner(1, EvictionOrder.LARGEST_CORES)
        migrate, _ = planner.plan([server], 4)
        assert migrate[0].vm_id == 1

    def test_smallest_memory_order(self):
        server = Server(0, ServerSpec(cores=40))
        server.host(make_vm(0, cores=4, memory_gib=32.0))
        server.host(make_vm(1, cores=4, memory_gib=8.0))
        planner = EvictionPlanner(1, EvictionOrder.SMALLEST_MEMORY)
        migrate, _ = planner.plan([server], 4)
        assert migrate[0].vm_id == 1

    def test_pause_degradable_splits_output(self):
        server = Server(0, ServerSpec(cores=40))
        server.host(make_vm(0, cores=4, vm_class=VMClass.DEGRADABLE))
        server.host(make_vm(1, cores=4, vm_class=VMClass.STABLE))
        planner = EvictionPlanner(1, pause_degradable=True)
        migrate, pause = planner.plan([server], 8)
        assert [vm.vm_id for vm in pause] == [0]
        assert [vm.vm_id for vm in migrate] == [1]

    def test_gives_up_when_cluster_empty(self):
        servers = [Server(i, ServerSpec()) for i in range(3)]
        planner = EvictionPlanner(3)
        migrate, pause = planner.plan(servers, 100)
        assert migrate == [] and pause == []

    def test_never_selects_same_vm_twice(self):
        servers = self._loaded_servers(2, 3, 4)
        planner = EvictionPlanner(2)
        migrate, _ = planner.plan(servers, 24)  # all 6 VMs
        ids = [vm.vm_id for vm in migrate]
        assert len(ids) == len(set(ids))

    def test_migration_bytes_sums_memory(self):
        vms = [make_vm(0, memory_gib=16.0), make_vm(1, memory_gib=8.0)]
        assert migration_bytes(vms) == 24 * 2**30
