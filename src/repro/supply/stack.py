"""The composable supply stack: generation → top-ups → delivered power.

A :class:`SupplyStack` turns a base renewable :class:`PowerTrace` into
the power a datacenter actually sees, by threading a per-step power
balance through an ordered list of
:class:`~repro.supply.components.SupplyComponent`\\ s (batteries, firm
grid purchases).  It evaluates in two modes:

**Open loop** (:meth:`SupplyStack.evaluate_open_loop`): no demand
signal.  Components dispatch against a fixed firming target
(``target_fraction`` × mean generation, the standard firming baseline
of :func:`repro.multisite.physical_battery.smooth_with_battery`), and
the result is a precomputed delivered series — what the scheduler's
forecast capacities and the simulators' precomputed budget series
consume.  With an empty stack the delivered series **is** the base
trace's value array, untouched, so the legacy core-budget path is
reproduced bit for bit.

**Closed loop** (:meth:`SupplyStack.dispatcher`): the simulator calls
:meth:`SupplyDispatcher.dispatch` at every step with its *current*
demand, so the battery charges from real surplus (generation beyond
what the site can use) and discharges into real dips (generation below
what is running).  Storage interacting with load in the loop is what
the open-loop analysis cannot express — the point of this layer.

Both modes run one settle loop over the component chain
(:meth:`SupplyDispatcher._settle`) and fill a :class:`SupplyEvaluation`:
per-step delivered power plus SoC / charge / discharge / grid-import /
curtailment / cost / carbon columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..traces import PowerTrace
from .components import BatteryDispatch, PricedGridPower, SupplyComponent


class SupplyEvaluation:
    """Per-step accounting of one supply-stack evaluation.

    Attributes:
        delivered: Normalized delivered power per step (what the power
            model converts to a core budget).
        soc_mwh: Total battery state of charge after each step.
        charge_mwh: Battery charge per step.
        discharge_mwh: Battery discharge per step.
        grid_import_mwh: Firm grid energy drawn per step.
        curtailed_mwh: Surplus neither used nor stored per step
            (meaningful in closed loop, where demand is known; open
            loop passes surplus through to the cluster and records 0).
        cost_usd: Grid purchase cost per step (0 for an unpriced
            grid).
        carbon_kg: Grid purchase emissions per step (idem).
    """

    #: The per-step series attributes, in their *stable, documented*
    #: order: ``delivered`` first, then the component telemetry in
    #: accounting order (SoC, charge, discharge, grid import,
    #: curtailment, purchase cost, purchase carbon).  This tuple is the
    #: contract consumers iterate — the equivalence tests compare them
    #: series by series, and session checkpoints serialize them —
    #: instead of poking attributes ad hoc.  Appending a new series is
    #: allowed; reordering or renaming is a breaking change.
    SERIES_FIELDS = (
        "delivered", "soc_mwh", "charge_mwh", "discharge_mwh",
        "grid_import_mwh", "curtailed_mwh", "cost_usd", "carbon_kg",
    )

    __slots__ = SERIES_FIELDS

    def __init__(self, delivered: np.ndarray):
        n = len(delivered)
        self.delivered = delivered
        self.soc_mwh = np.zeros(n)
        self.charge_mwh = np.zeros(n)
        self.discharge_mwh = np.zeros(n)
        self.grid_import_mwh = np.zeros(n)
        self.curtailed_mwh = np.zeros(n)
        self.cost_usd = np.zeros(n)
        self.carbon_kg = np.zeros(n)

    # ------------------------------------------------------------------

    @property
    def charge_total_mwh(self) -> float:
        """Total energy sent into batteries."""
        return float(self.charge_mwh.sum())

    @property
    def discharge_total_mwh(self) -> float:
        """Total energy delivered from batteries."""
        return float(self.discharge_mwh.sum())

    @property
    def grid_import_total_mwh(self) -> float:
        """Total firm grid energy drawn."""
        return float(self.grid_import_mwh.sum())

    @property
    def curtailed_total_mwh(self) -> float:
        """Total surplus neither used nor stored."""
        return float(self.curtailed_mwh.sum())

    @property
    def cost_total_usd(self) -> float:
        """Total grid purchase cost."""
        return float(self.cost_usd.sum())

    @property
    def carbon_total_kg(self) -> float:
        """Total grid purchase emissions."""
        return float(self.carbon_kg.sum())

    @property
    def final_soc_mwh(self) -> float:
        """Battery state of charge at the end of the run."""
        if len(self.soc_mwh) == 0:
            return 0.0
        return float(self.soc_mwh[-1])

    def summary(self) -> dict:
        """JSON-ready totals (the ``supply`` block of result summaries)."""
        return {
            "charge_mwh": self.charge_total_mwh,
            "discharge_mwh": self.discharge_total_mwh,
            "grid_import_mwh": self.grid_import_total_mwh,
            "curtailed_mwh": self.curtailed_total_mwh,
            "final_soc_mwh": self.final_soc_mwh,
            "cost_usd": self.cost_total_usd,
            "carbon_kg": self.carbon_total_kg,
        }

    def emit_metrics(self, **attrs) -> None:
        """Emit the run's supply counters through :mod:`repro.obs`."""
        obs.count("supply.charge_mwh", self.charge_total_mwh, **attrs)
        obs.count("supply.discharge_mwh", self.discharge_total_mwh, **attrs)
        obs.count("supply.curtailed_mwh", self.curtailed_total_mwh, **attrs)
        if self.grid_import_total_mwh:
            obs.count(
                "supply.grid_import_mwh",
                self.grid_import_total_mwh,
                **attrs,
            )
        if self.cost_total_usd:
            obs.count("supply.cost_usd", self.cost_total_usd, **attrs)
        if self.carbon_total_kg:
            obs.count("supply.carbon_kg", self.carbon_total_kg, **attrs)
        obs.gauge("supply.final_soc_mwh", self.final_soc_mwh, **attrs)


class SupplyDispatcher:
    """Per-step dispatch of one stack against one trace.

    Created by :meth:`SupplyStack.dispatcher` for the closed loop: the
    simulator calls :meth:`dispatch` once per processed step, in step
    order, with its current demand.  The open loop
    (:meth:`SupplyStack.evaluate_open_loop`) runs the same component
    chain through :meth:`_settle` against its firming target.  All
    telemetry accumulates into :attr:`evaluation`.

    Generation, prices and carbon are read from the live trace and
    component arrays at every step, so an in-place change to them (a
    session injection) is seen from the next dispatch on.
    """

    def __init__(self, stack: "SupplyStack", trace: PowerTrace):
        self._components: tuple[SupplyComponent, ...] = stack.components
        self._states = [c.initial_state() for c in stack.components]
        self._values = trace.values
        self._capacity_mw = trace.capacity_mw
        self._step_hours = trace.grid.step_hours
        # Un-dispatched steps (none, in a full run) default to base.
        self.evaluation = SupplyEvaluation(np.array(trace.values))
        n = trace.grid.n
        for c in stack.components:
            if isinstance(c, PricedGridPower):
                for series in (c.price_per_mwh, c.carbon_per_mwh):
                    if series is not None and len(series) < n:
                        raise ConfigurationError(
                            f"priced grid series has {len(series)} steps"
                            f" but the trace has {n}"
                        )

    @property
    def components(self) -> tuple[SupplyComponent, ...]:
        """The stack's components, in dispatch order."""
        return self._components

    @property
    def states(self) -> list[object]:
        """Mutable per-component dispatch states (same order)."""
        return self._states

    def _settle(
        self, step: int, base_mw: float, balance_mw: float
    ) -> tuple[float, float]:
        """Offer one step's power balance down the component chain.

        Each component sees the balance the previous one left.  This is
        the only writer of the per-step component telemetry: SoC,
        charge, discharge, grid import, cost and carbon at ``step``.

        Returns:
            ``(delivered_mw, balance_mw)``: ``base_mw`` plus every
            component's delta, and the balance left after the chain.
        """
        h = self._step_hours
        ev = self.evaluation
        delivered_mw = base_mw
        soc_mwh = 0.0
        for component, state in zip(self._components, self._states):
            if isinstance(component, PricedGridPower):
                cost_before = state.cost_usd
                carbon_before = state.carbon_kg
                delta_mw = component.step(state, balance_mw, h, step)
                if delta_mw > 0.0:
                    ev.grid_import_mwh[step] += delta_mw * h
                    # The ledger's own increment, not draw × price
                    # recomputed: the series then matches the state.
                    ev.cost_usd[step] += state.cost_usd - cost_before
                    ev.carbon_kg[step] += state.carbon_kg - carbon_before
            else:
                delta_mw = component.step(state, balance_mw, h, step)
                if isinstance(component, BatteryDispatch):
                    if delta_mw < 0.0:
                        ev.charge_mwh[step] -= delta_mw * h
                    elif delta_mw > 0.0:
                        ev.discharge_mwh[step] += delta_mw * h
                    soc_mwh += state.soc_mwh
            balance_mw += delta_mw
            delivered_mw += delta_mw
        ev.soc_mwh[step] = soc_mwh
        return delivered_mw, balance_mw

    def dispatch(self, step: int, demand_norm: float) -> float:
        """Deliver power for one step given the site's current demand.

        Args:
            step: Grid index being processed.
            demand_norm: Normalized power the site could productively
                use this step (running + resumable + launchable cores,
                through the power model's inverse).

        Returns:
            Normalized delivered power: base generation minus charging
            plus discharge / grid import.
        """
        capacity = self._capacity_mw
        base_mw = float(self._values[step]) * capacity
        demand_norm = max(demand_norm, 0.0)
        balance_mw = base_mw - demand_norm * capacity
        covered = balance_mw >= 0.0
        delivered_mw, balance_mw = self._settle(step, base_mw, balance_mw)
        ev = self.evaluation
        if balance_mw > 0.0:
            ev.curtailed_mwh[step] = balance_mw * self._step_hours
        delivered = delivered_mw / capacity
        if covered and delivered < demand_norm:
            # Components only absorb on a surplus step, never below the
            # demand — but the MW round trip (base - (base - demand),
            # then / capacity) can land one ulp under demand_norm,
            # which would floor away a powered core the site is owed.
            delivered = demand_norm
        ev.delivered[step] = delivered
        return delivered

    # ------------------------------------------------------------------
    # Skip-ahead support (the closed-loop event engines)
    # ------------------------------------------------------------------

    @property
    def capacity_mw(self) -> float:
        """The bound trace's capacity scale (MW at normalized 1.0)."""
        return self._capacity_mw

    def base_mw_series(self) -> np.ndarray:
        """Base generation in MW per step, computed elementwise.

        ``values[t] * capacity`` under IEEE double arithmetic — the
        exact product :meth:`dispatch` forms scalar-by-scalar, so
        window fills derived from this series are bit-identical to the
        per-step path.
        """
        return np.asarray(self._values, dtype=float) * self._capacity_mw

    def pinned(self, surplus: bool) -> bool:
        """True when *every* component is a provable no-op for the sign.

        While this holds, a dispatch at any step whose balance has the
        given sign returns exactly ``base / capacity`` (modulo the
        covered-demand ulp clamp), mutates no component state, and
        accrues no charge/discharge/import telemetry — the condition
        the closed-loop engines need to skip the step wholesale.
        """
        for component, state in zip(self._components, self._states):
            check = getattr(component, "pinned", None)
            if check is None or not check(state, surplus):
                return False
        return True

    def battery_soc_mwh(self) -> float:
        """Total battery state of charge right now (the SoC column fill)."""
        total = 0.0
        for component, state in zip(self._components, self._states):
            if isinstance(component, BatteryDispatch):
                total += state.soc_mwh
        return total

    def fill_skipped(
        self,
        start: int,
        stop: int,
        balance_mw: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Write the telemetry a pinned window would have accumulated.

        Args:
            start: First skipped step (inclusive).
            stop: One past the last skipped step.
            balance_mw: ``base_mw - demand_mw`` for the window (length
                ``stop - start``) — with every component pinned the
                final balance equals the initial one bit-for-bit.
            delivered: Normalized delivered power for the window (after
                the covered-demand clamp, before the engine's [0, 1]
                clip — matching what :meth:`dispatch` records).
        """
        ev = self.evaluation
        ev.delivered[start:stop] = delivered
        ev.soc_mwh[start:stop] = self.battery_soc_mwh()
        h = self._step_hours
        positive = balance_mw > 0.0
        if positive.any():
            curtailed = ev.curtailed_mwh[start:stop]
            np.multiply(balance_mw, h, out=curtailed, where=positive)


@dataclass(frozen=True)
class SupplyStack:
    """An ordered composition of supply components over base generation.

    Attributes:
        components: Top-up stages, dispatched in order (each sees the
            balance left by the previous).  Empty means pass-through:
            the delivered series is the base trace, bit for bit.
        target_fraction: Open-loop firming target as a fraction of mean
            generation (the :func:`smooth_with_battery` convention).
    """

    components: tuple[SupplyComponent, ...] = field(default_factory=tuple)
    target_fraction: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not 0.0 < self.target_fraction <= 2.0:
            raise ConfigurationError(
                f"target fraction must be in (0,2]: {self.target_fraction}"
            )

    @property
    def stateless(self) -> bool:
        """True when the stack is a pure pass-through (no components)."""
        return not self.components

    # ------------------------------------------------------------------
    # Open loop
    # ------------------------------------------------------------------

    def evaluate_open_loop(self, trace: PowerTrace) -> SupplyEvaluation:
        """Precompute the delivered series against the firming target.

        With no components this returns the trace's own value array as
        ``delivered`` (no arithmetic touches it — the bit-identity the
        golden tests pin).  Otherwise every step offers the balance
        against ``target_fraction × mean generation`` to the
        components; surplus the components do not absorb passes
        through to the cluster (curtailment stays zero — unallocated
        cores power down, the paper's absorption mechanism).
        """
        if not self.components:
            return SupplyEvaluation(trace.values)
        with obs.span(
            "supply.evaluate",
            n_steps=trace.grid.n,
            n_components=len(self.components),
        ):
            dispatcher = SupplyDispatcher(self, trace)
            settle = dispatcher._settle
            generation = trace.power_mw()
            target_mw = self.target_fraction * float(generation.mean())
            delivered_mw = np.empty(len(generation))
            for i, gen in enumerate(generation):
                delivered_mw[i], _ = settle(i, gen, gen - target_mw)
            ev = dispatcher.evaluation
            ev.delivered = np.clip(
                delivered_mw / trace.capacity_mw, 0.0, 1.0
            )
        return ev

    def apply(self, trace: PowerTrace) -> PowerTrace:
        """Open-loop delivered power as a new trace (``+supply`` suffix).

        Pass-through stacks return the trace unchanged (same object).
        """
        if not self.components:
            return trace
        evaluation = self.evaluate_open_loop(trace)
        return PowerTrace(
            trace.grid,
            evaluation.delivered,
            f"{trace.name}+supply",
            trace.kind,
            trace.capacity_mw,
        )

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------

    def dispatcher(self, trace: PowerTrace) -> SupplyDispatcher:
        """Fresh closed-loop dispatch state bound to ``trace``."""
        return SupplyDispatcher(self, trace)


def supply_stack(
    components: Sequence[SupplyComponent] = (),
    target_fraction: float = 0.5,
) -> SupplyStack:
    """Convenience constructor accepting any component sequence."""
    return SupplyStack(tuple(components), target_fraction)
