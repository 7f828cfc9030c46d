"""repro — Virtual Battery: renewable-powered data centers.

A full reproduction of "Redesigning Data Centers for Renewable Energy"
(HotNets '21).  The library covers the paper's whole stack:

- :mod:`repro.traces` — synthetic solar/wind generation standing in for
  the ELIA/EMHIRES datasets, with spatially-correlated multi-site
  synthesis (§2.2).
- :mod:`repro.forecast` — horizon-calibrated power forecasting (Fig 5).
- :mod:`repro.workload` — Azure-like VM arrivals and application
  batches.
- :mod:`repro.cluster` — the single-site datacenter simulator behind
  §3's migration-overhead study (Fig 4).
- :mod:`repro.multisite` — multi-VB aggregation, stable-energy
  accounting, grid purchases, latency graph (§2.3, Fig 3).
- :mod:`repro.sched` — the power & network aware co-scheduler: greedy
  baseline, MIP / MIP-24h / MIP-peak (§3.1, Table 1, Fig 7).
- :mod:`repro.sim` — executing placements against actual generation.
- :mod:`repro.experiments` — declarative scenarios, the cached staged
  runner, and parallel scenario batches.
- :mod:`repro.obs` — span tracing and metrics behind every pipeline
  (``$REPRO_TRACE``, ``repro report``).
- :mod:`repro.analysis` — CDFs, percentile ratios, text tables.

Quickstart::

    from datetime import datetime
    from repro import grid_days, synthesize_solar

    grid = grid_days(datetime(2020, 5, 1), days=7)
    trace = synthesize_solar(grid, seed=42)
    print(trace.cov(), trace.stable_energy_mwh())
"""

from .errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    ForecastError,
    ReproError,
    SchedulingError,
    SolverError,
    TimeGridError,
    TraceError,
)
from .units import TimeGrid, grid_days
from .traces import (
    PowerTrace,
    Site,
    SiteCatalog,
    SolarConfig,
    WindConfig,
    default_european_catalog,
    synthesize_catalog_traces,
    synthesize_solar,
    synthesize_wind,
)
from .forecast import (
    ClimatologyForecaster,
    Forecast,
    NoisyOracleForecaster,
    PersistenceForecaster,
)
from .workload import (
    Application,
    AzureWorkloadConfig,
    VMClass,
    VMRequest,
    VMType,
    generate_applications,
    generate_vm_requests,
    workload_matched_to_power,
)
from .cluster import (
    ClusterSpec,
    Datacenter,
    DatacenterConfig,
    ServerSpec,
    SimulationResult,
)
from .multisite import (
    GridPurchase,
    SiteGraph,
    VBSite,
    build_vb_sites,
    combination_report,
    stabilize_with_purchase,
)
from .sched import (
    CoScheduler,
    GreedyScheduler,
    GridPricing,
    MIPScheduler,
    Placement,
    RollingMIPScheduler,
    SchedulingProblem,
    SiteCapacity,
    problem_from_forecasts,
)
from .sim import (
    SUMMARY_SCHEMA,
    ExecutionResult,
    PolicyComparison,
    execute_placement,
    simulate,
    summarize_transfers,
)
from . import obs
from .supply import (
    BatteryDispatch,
    PricedGridPower,
    SupplySpec,
    SupplyStack,
)
from .experiments import (
    ArtifactCache,
    Runner,
    RunResult,
    Scenario,
    run_scenario,
    run_scenarios,
)

__version__ = "0.1.0"

__all__ = [
    "ReproError",
    "TimeGridError",
    "TraceError",
    "ForecastError",
    "CapacityError",
    "AllocationError",
    "SchedulingError",
    "SolverError",
    "ConfigurationError",
    "TimeGrid",
    "grid_days",
    "PowerTrace",
    "Site",
    "SiteCatalog",
    "SolarConfig",
    "WindConfig",
    "default_european_catalog",
    "synthesize_catalog_traces",
    "synthesize_solar",
    "synthesize_wind",
    "Forecast",
    "NoisyOracleForecaster",
    "PersistenceForecaster",
    "ClimatologyForecaster",
    "Application",
    "AzureWorkloadConfig",
    "VMClass",
    "VMRequest",
    "VMType",
    "generate_applications",
    "generate_vm_requests",
    "workload_matched_to_power",
    "ClusterSpec",
    "Datacenter",
    "DatacenterConfig",
    "ServerSpec",
    "SimulationResult",
    "GridPurchase",
    "SiteGraph",
    "VBSite",
    "build_vb_sites",
    "combination_report",
    "stabilize_with_purchase",
    "CoScheduler",
    "GreedyScheduler",
    "GridPricing",
    "MIPScheduler",
    "Placement",
    "RollingMIPScheduler",
    "SchedulingProblem",
    "SiteCapacity",
    "problem_from_forecasts",
    "ExecutionResult",
    "PolicyComparison",
    "SUMMARY_SCHEMA",
    "execute_placement",
    "simulate",
    "summarize_transfers",
    "obs",
    "BatteryDispatch",
    "PricedGridPower",
    "SupplySpec",
    "SupplyStack",
    "ArtifactCache",
    "Runner",
    "RunResult",
    "Scenario",
    "run_scenario",
    "run_scenarios",
    "__version__",
]
