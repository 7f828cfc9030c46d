"""Single-site datacenter simulator.

This is the engine behind the paper's §3 experiment: a cluster of ~700
servers (40 cores, 512 GB each) fed by an Azure-like VM arrival trace
and powered by a renewable trace scaled so full power runs the whole
cluster.  When power drops the simulator first powers down unallocated
cores, then migrates VMs out round-robin; when power returns it launches
queued VMs and counts them as in-migrations.  Admission control holds
utilization at a target (70% in the paper).

Public surface: :class:`~repro.cluster.datacenter.Datacenter` plus the
configuration/result types it exposes.
"""

from .resources import ServerSpec, ClusterSpec
from .server import Server
from .vm import VM, VMState
from .admission import AdmissionControl
from .power import PowerModel, LinearCorePower, ServerGranularPower
from .migration import EvictionPlanner, EvictionOrder
from .events import (
    Event,
    EventKind,
    EventLog,
)
from .livemigration import (
    LiveMigrationModel,
    MigrationEstimate,
    amplification_factor,
    estimate_migration,
)
from .datacenter import Datacenter, DatacenterConfig, StepRecord, SimulationResult

__all__ = [
    "ServerSpec",
    "ClusterSpec",
    "Server",
    "VM",
    "VMState",
    "AdmissionControl",
    "PowerModel",
    "LinearCorePower",
    "ServerGranularPower",
    "EvictionPlanner",
    "EvictionOrder",
    "Event",
    "EventKind",
    "EventLog",
    "LiveMigrationModel",
    "MigrationEstimate",
    "amplification_factor",
    "estimate_migration",
    "Datacenter",
    "DatacenterConfig",
    "StepRecord",
    "SimulationResult",
]
