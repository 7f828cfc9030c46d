"""Multi-site execution: run placements against *actual* generation.

Schedulers plan on forecasts; this package replays their placements
against the true traces, producing the realized migration traffic that
Table 1 and Figure 7 report.  Execution follows the displaced-stable-
cores semantics of :mod:`repro.sched.overhead`, optionally honouring a
plan's preemptive displacement trajectory (MIP-peak moves VMs early to
flatten spikes).
"""

from .engine import ExecutionResult, SiteExecution, execute_placement
from .detailed import DetailedResult, DetailedSiteRecord
from .facade import simulate
from .fleet import FleetEngine, FleetSite
from .results import (
    SUMMARY_SCHEMA,
    PolicyComparison,
    TransferSummary,
    summarize_transfers,
)

__all__ = [
    "ExecutionResult",
    "SiteExecution",
    "execute_placement",
    "DetailedResult",
    "DetailedSiteRecord",
    "FleetEngine",
    "FleetSite",
    "PolicyComparison",
    "simulate",
    "SUMMARY_SCHEMA",
    "TransferSummary",
    "summarize_transfers",
]
