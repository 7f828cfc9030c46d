"""Composable power-supply layer: generation, top-ups, dispatch.

Every layer that previously converted a raw renewable trace to core
budgets through its own path now shares this one:

- :class:`SupplyStack` — ordered :class:`SupplyComponent` composition
  over a base :class:`~repro.traces.PowerTrace`, with open-loop
  (precomputed series) and closed-loop (per-step demand-driven)
  evaluation producing :class:`SupplyEvaluation` telemetry.
- :class:`BatteryDispatch` / :class:`PricedGridPower` — stateful
  top-ups with SoC / budget / cost-and-carbon dynamics; each
  component's ``step`` is the only copy of its dispatch arithmetic.
- :class:`SupplyDispatcher` — closed-loop dispatch of one stack
  against one site's live demand: :meth:`~SupplyDispatcher.dispatch`
  per step, plus :meth:`~SupplyDispatcher.pinned` and
  :meth:`~SupplyDispatcher.fill_skipped` for the stretches where
  every component is a provable no-op.  Every closed-loop site, fleet
  members included, runs it; the cluster's wake thresholds stay in
  the simulator.
- :class:`SupplySpec` — the serializable, content-hashable form used
  by `experiments.Scenario` and the CLI.
"""

from .components import (
    GRID_POLICIES,
    BatteryDispatch,
    BatteryState,
    PricedGridPower,
    PricedGridState,
    SupplyComponent,
)
from .spec import DEFAULT_BATTERY_HOURS, NO_SUPPLY, SUPPLY_MODES, SupplySpec
from .stack import (
    SupplyDispatcher,
    SupplyEvaluation,
    SupplyStack,
    supply_stack,
)

__all__ = [
    "BatteryDispatch",
    "BatteryState",
    "DEFAULT_BATTERY_HOURS",
    "GRID_POLICIES",
    "NO_SUPPLY",
    "PricedGridPower",
    "PricedGridState",
    "SUPPLY_MODES",
    "SupplyComponent",
    "SupplyDispatcher",
    "SupplyEvaluation",
    "SupplySpec",
    "SupplyStack",
    "supply_stack",
]
