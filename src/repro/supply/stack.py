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

Both modes fill a :class:`SupplyEvaluation`: per-step delivered power
plus SoC / charge / discharge / grid-import / curtailment columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..traces import PowerTrace
from .components import (
    GRID_POLICIES,
    BatteryDispatch,
    GridFirmPower,
    PricedGridPower,
    SupplyComponent,
)

#: Integer policy codes for the span kernel's plan rows (0: always,
#: 1: threshold, 2: dvb — index order of :data:`GRID_POLICIES`).
_GRID_POLICY_CODES = {name: i for i, name in enumerate(GRID_POLICIES)}


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
        cost_usd: Grid purchase cost per step (priced grids only; the
            flat :class:`GridFirmPower` records 0).
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
    """Closed-loop per-step dispatch of one stack against one trace.

    Created by :meth:`SupplyStack.dispatcher`; the simulator calls
    :meth:`dispatch` once per processed step, in step order, with its
    current normalized demand.  All telemetry accumulates into
    :attr:`evaluation`.
    """

    def __init__(self, stack: "SupplyStack", trace: PowerTrace):
        self._components: tuple[SupplyComponent, ...] = stack.components
        self._states = [c.initial_state() for c in stack.components]
        self._values = trace.values
        self._capacity_mw = trace.capacity_mw
        self._step_hours = trace.grid.step_hours
        # Un-dispatched steps (none, in a full run) default to base.
        self.evaluation = SupplyEvaluation(np.array(trace.values))
        # Span kernel support: the scalar window loop specializes the
        # shipped component types; anything else (subclasses too —
        # their ``step`` may differ) falls back to per-step dispatch.
        self._span_specialized = all(
            type(c) in (BatteryDispatch, GridFirmPower, PricedGridPower)
            for c in stack.components
        )
        n = trace.grid.n
        self._priced_series: dict[int, tuple[list | None, list | None]] = {}
        for k, c in enumerate(stack.components):
            if isinstance(c, PricedGridPower):
                for series in (c.price_per_mwh, c.carbon_per_mwh):
                    if series is not None and len(series) < n:
                        raise ConfigurationError(
                            f"priced grid series has {len(series)} steps"
                            f" but the trace has {n}"
                        )
        self._rebuild_priced_series()
        self._values_list: list[float] | None = None

    def _rebuild_priced_series(self) -> None:
        # Python-float copies for the span kernel's inner loop (same
        # values bit for bit, no ndarray item overhead).
        self._priced_series.clear()
        for k, c in enumerate(self._components):
            if isinstance(c, PricedGridPower):
                self._priced_series[k] = (
                    None if c.price_per_mwh is None
                    else c.price_per_mwh.tolist(),
                    None if c.carbon_per_mwh is None
                    else c.carbon_per_mwh.tolist(),
                )

    @property
    def components(self) -> tuple[SupplyComponent, ...]:
        """The stack's components, in dispatch order."""
        return self._components

    def invalidate_base_cache(self) -> None:
        """Drop caches derived from the base trace values or the
        priced components' signal series.

        The dispatcher reads generation through a live view of the
        trace's value array, and the span kernel reads price/carbon
        through Python-float copies of the component series; callers
        that mutate either in place (session blackout or spot-price
        injections) must invalidate so subsequent dispatches see the
        new values.
        """
        self._values_list = None
        self._rebuild_priced_series()

    @property
    def states(self) -> list[object]:
        """Mutable per-component dispatch states (same order)."""
        return self._states

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
        h = self._step_hours
        capacity = self._capacity_mw
        base_mw = float(self._values[step]) * capacity
        demand_norm = max(demand_norm, 0.0)
        demand_mw = demand_norm * capacity
        balance_mw = base_mw - demand_mw
        covered = balance_mw >= 0.0
        delivered_mw = base_mw
        ev = self.evaluation
        soc_mwh = 0.0
        for component, state in zip(self._components, self._states):
            priced = type(component) is PricedGridPower
            if priced:
                cost_before = state.cost_usd
                carbon_before = state.carbon_kg
            delta_mw = component.step(state, balance_mw, h, step)
            balance_mw += delta_mw
            delivered_mw += delta_mw
            if isinstance(component, BatteryDispatch):
                if delta_mw < 0.0:
                    ev.charge_mwh[step] -= delta_mw * h
                elif delta_mw > 0.0:
                    ev.discharge_mwh[step] += delta_mw * h
                soc_mwh += state.soc_mwh
            elif isinstance(component, GridFirmPower) and delta_mw > 0.0:
                ev.grid_import_mwh[step] += delta_mw * h
                if priced:
                    # Snapshot-diff, not draw*price recomputed: every
                    # engine forms the identical cumulative sequence,
                    # so the per-step series match bit for bit.
                    ev.cost_usd[step] += state.cost_usd - cost_before
                    ev.carbon_kg[step] += state.carbon_kg - carbon_before
        ev.soc_mwh[step] = soc_mwh
        if balance_mw > 0.0:
            ev.curtailed_mwh[step] = balance_mw * h
        delivered = delivered_mw / capacity
        if covered and delivered < demand_norm:
            # Components only absorb on a surplus step, never below the
            # demand — but the MW round trip (base - (base - demand),
            # then / capacity) can land one ulp under demand_norm,
            # which would floor away a powered core the site is owed.
            delivered = demand_norm
        ev.delivered[step] = delivered
        return delivered

    def advance_span(
        self,
        start: int,
        stop: int,
        demand_norm: float,
        lo_norm: float | None,
        up_norm: float | None,
    ) -> tuple[list[float], bool]:
        """Dispatch a constant-demand window, halting at a wake crossing.

        The closed-loop event engines know demand is constant between
        site events, so a whole window of dispatches differs only in
        the base generation — a tight scalar loop with the component
        arithmetic inlined, instead of one :meth:`dispatch` call (and
        five attribute hops) per step.  Steps ``start .. stop-1`` are
        dispatched in order; the loop stops *after* the first step
        whose clipped delivered power crosses the wake thresholds
        (``< lo_norm``: the budget would drop below running cores;
        ``>= up_norm``: it could resume or launch work).  Telemetry for
        every dispatched step — including the crossing step — is
        written exactly as :meth:`dispatch` would.

        Args:
            start: First step to dispatch (inclusive).
            stop: One past the last step the window may cover.
            demand_norm: The window's constant normalized demand.
            lo_norm: Wake when clipped delivered drops below this
                (``None`` disables — nothing is running).
            up_norm: Wake when clipped delivered reaches this (``None``
                disables — nothing can resume or launch).

        Returns:
            ``(deliveries, crossed)``: the raw delivered values (before
            the engine's [0, 1] clip) for the dispatched prefix, and
            whether the last one crossed a threshold (making its step a
            wake the caller must process).  A prefix shorter than the
            window with ``crossed=False`` means the stack went *idle* —
            pinned for the sign it was dispatching — and the caller
            should resume after the prefix, where :meth:`pinned` now
            holds and whole windows can vectorize.
        """
        if stop <= start:
            return [], False
        demand_norm = max(demand_norm, 0.0)
        lo = -np.inf if lo_norm is None else lo_norm
        up = np.inf if up_norm is None else up_norm
        if not self._span_specialized:
            return self._advance_span_generic(
                start, stop, demand_norm, lo, up
            )
        h = self._step_hours
        capacity = self._capacity_mw
        demand_mw = demand_norm * capacity
        vals = self._values_list
        if vals is None:
            vals = self._values_list = np.asarray(
                self._values, dtype=float
            ).tolist()
        # (kind, mutable energy state, params...): battery rows carry
        # [0, soc_mwh, capacity_mwh, max_power_mw, efficiency]; grid
        # rows [1, remaining_mwh, max_power_mw-or-inf]; priced grid
        # rows [2, remaining_mwh, max_power_mw-or-inf, policy_code,
        # prices-or-None, carbons-or-None, price_threshold,
        # carbon_threshold, theta_lo, virtual_mwh, vcap, cost_usd,
        # carbon_kg].  min(x, inf) returns x bit-for-bit, so an
        # unlimited grid needs no branch.
        plan: list[list] = []
        for k, (component, state) in enumerate(
            zip(self._components, self._states)
        ):
            if type(component) is BatteryDispatch:
                plan.append([
                    0, state.soc_mwh, component.capacity_mwh,
                    component.max_power_mw, component.efficiency,
                ])
            elif type(component) is PricedGridPower:
                limit = component.max_power_mw
                prices, carbons = self._priced_series[k]
                plan.append([
                    2, state.remaining_mwh,
                    np.inf if limit is None else limit,
                    _GRID_POLICY_CODES[component.policy],
                    prices, carbons,
                    component.price_threshold,
                    component.carbon_threshold,
                    component.dvb_theta_lo,
                    state.virtual_mwh,
                    component.dvb_capacity_mwh,
                    state.cost_usd,
                    state.carbon_kg,
                ])
            else:
                limit = component.max_power_mw
                plan.append([
                    1, state.remaining_mwh,
                    np.inf if limit is None else limit,
                ])
        del_buf: list[float] = []
        soc_buf: list[float] = []
        chg_buf: list[float] = []
        dis_buf: list[float] = []
        imp_buf: list[float] = []
        cur_buf: list[float] = []
        cst_buf: list[float] = []
        car_buf: list[float] = []
        crossed = False
        for t in range(start, stop):
            base_mw = vals[t] * capacity
            balance = base_mw - demand_mw
            covered = balance >= 0.0
            delivered_mw = base_mw
            soc_t = 0.0
            chg_t = 0.0
            dis_t = 0.0
            imp_t = 0.0
            cst_t = 0.0
            car_t = 0.0
            for row in plan:
                if row[0] == 0:
                    # BatteryDispatch.step, inlined operation for
                    # operation (bit-identical accounting).
                    soc = row[1]
                    if balance >= 0.0:
                        surplus_mw = min(balance, row[3])
                        headroom_mwh = row[2] - soc
                        charge_mwh = min(surplus_mw * h, headroom_mwh)
                        row[1] = soc + charge_mwh
                        delta = -charge_mwh / h
                    else:
                        deficit_mw = min(-balance, row[3])
                        deliverable_mwh = soc * row[4]
                        discharge_mwh = min(deficit_mw * h, deliverable_mwh)
                        row[1] = soc - discharge_mwh / row[4]
                        delta = discharge_mwh / h
                    balance += delta
                    delivered_mw += delta
                    if delta < 0.0:
                        chg_t -= delta * h
                    elif delta > 0.0:
                        dis_t += delta * h
                    soc_t += row[1]
                elif row[0] == 1:
                    # GridFirmPower.step, inlined.
                    remaining = row[1]
                    if balance >= 0.0 or remaining <= 0.0:
                        continue
                    draw_mw = min(-balance, row[2])
                    draw_mwh = min(draw_mw * h, remaining)
                    row[1] = remaining - draw_mwh
                    delta = draw_mwh / h
                    balance += delta
                    delivered_mw += delta
                    if delta > 0.0:
                        imp_t += delta * h
                else:
                    # PricedGridPower.step, inlined (policy gate, then
                    # the GridFirmPower draw plus the ledger updates).
                    remaining = row[1]
                    if balance >= 0.0 or remaining <= 0.0:
                        continue
                    price = 0.0 if row[4] is None else row[4][t]
                    carbon = 0.0 if row[5] is None else row[5][t]
                    pol = row[3]
                    if pol == 0:
                        buy = True
                    elif pol == 1:
                        buy = price <= row[6] and carbon <= row[7]
                    else:
                        theta = row[8] + (row[6] - row[8]) * (
                            1.0 - row[9] / row[10]
                        )
                        buy = price <= theta
                    if not buy:
                        if pol == 2:
                            row[9] = max(row[9] - (-balance) * h, 0.0)
                        continue
                    draw_mw = min(-balance, row[2])
                    draw_mwh = min(draw_mw * h, remaining)
                    row[1] = remaining - draw_mwh
                    cost0 = row[11]
                    carbon0 = row[12]
                    row[11] = cost0 + draw_mwh * price
                    row[12] = carbon0 + draw_mwh * carbon
                    if pol == 2:
                        row[9] = min(row[9] + draw_mwh, row[10])
                    delta = draw_mwh / h
                    balance += delta
                    delivered_mw += delta
                    if delta > 0.0:
                        imp_t += delta * h
                        # Snapshot-diff, as dispatch() accounts it.
                        cst_t += row[11] - cost0
                        car_t += row[12] - carbon0
            soc_buf.append(soc_t)
            chg_buf.append(chg_t)
            dis_buf.append(dis_t)
            imp_buf.append(imp_t)
            cst_buf.append(cst_t)
            car_buf.append(car_t)
            cur_buf.append(balance * h if balance > 0.0 else 0.0)
            delivered = delivered_mw / capacity
            if covered and delivered < demand_norm:
                delivered = demand_norm  # the ulp clamp, as dispatch()
            del_buf.append(delivered)
            clipped = delivered
            if clipped < 0.0:
                clipped = 0.0
            elif clipped > 1.0:
                clipped = 1.0
            if clipped < lo or clipped >= up:
                crossed = True
                break
            if delivered_mw == base_mw and t + 1 < stop:
                # Idle probe: no component moved this step (deltas
                # never cancel — charging and importing cannot coexist
                # in one step — so an unchanged delivered power means
                # every delta was zero).  If on top of that every
                # component is *pinned* for this step's balance sign,
                # all further dispatches of that sign are provable
                # no-ops: return the prefix early (not a crossing) so
                # the engine's vectorized pinned-window path skips the
                # rest of the window instead of grinding it here.  The
                # bound tests mirror ``pinned()`` exactly, so the
                # engine's re-check agrees and cannot bounce back.
                for row in plan:
                    if row[0] == 0:
                        if covered:
                            if row[2] - row[1] != 0.0:
                                break
                        elif row[1] * row[4] != 0.0 or row[1] < 0.0:
                            break
                    elif not covered and row[1] > 0.0:
                        break
                else:
                    break
        # Sync the component states the inlined loop advanced.
        for row, state in zip(plan, self._states):
            if row[0] == 0:
                state.soc_mwh = row[1]
            elif row[0] == 1:
                state.remaining_mwh = row[1]
            else:
                state.remaining_mwh = row[1]
                state.virtual_mwh = row[9]
                state.cost_usd = row[11]
                state.carbon_kg = row[12]
        end = start + len(del_buf)
        ev = self.evaluation
        ev.delivered[start:end] = del_buf
        ev.soc_mwh[start:end] = soc_buf
        ev.charge_mwh[start:end] = chg_buf
        ev.discharge_mwh[start:end] = dis_buf
        ev.grid_import_mwh[start:end] = imp_buf
        ev.curtailed_mwh[start:end] = cur_buf
        ev.cost_usd[start:end] = cst_buf
        ev.carbon_kg[start:end] = car_buf
        return del_buf, crossed

    def _advance_span_generic(
        self, start: int, stop: int, demand_norm: float,
        lo: float, up: float,
    ) -> tuple[list[float], bool]:
        """Per-step :meth:`dispatch` fallback for exotic components.

        Same contract as :meth:`advance_span`; used when a component is
        not exactly one of the two shipped types (subclasses included —
        an overridden ``step`` would invalidate the inlined arithmetic).
        """
        del_buf: list[float] = []
        dispatch = self.dispatch
        for t in range(start, stop):
            delivered = dispatch(t, demand_norm)
            del_buf.append(delivered)
            clipped = min(max(delivered, 0.0), 1.0)
            if clipped < lo or clipped >= up:
                return del_buf, True
        return del_buf, False

    # ------------------------------------------------------------------
    # Skip-ahead support (the closed-loop event engines)
    # ------------------------------------------------------------------

    @property
    def capacity_mw(self) -> float:
        """The bound trace's capacity scale (MW at normalized 1.0)."""
        return self._capacity_mw

    @property
    def step_hours(self) -> float:
        """The bound grid's step length in hours."""
        return self._step_hours

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
            h = trace.grid.step_hours
            capacity = trace.capacity_mw
            generation = trace.power_mw()
            target_mw = self.target_fraction * float(generation.mean())
            states = [c.initial_state() for c in self.components]
            delivered_mw = np.empty(len(generation))
            ev = SupplyEvaluation(delivered_mw)  # filled below
            batteries = [
                isinstance(c, BatteryDispatch) for c in self.components
            ]
            grids = [isinstance(c, GridFirmPower) for c in self.components]
            priced = [
                type(c) is PricedGridPower for c in self.components
            ]
            for i, gen in enumerate(generation):
                balance_mw = gen - target_mw
                out_mw = gen
                soc_mwh = 0.0
                for j, (component, state) in enumerate(
                    zip(self.components, states)
                ):
                    if priced[j]:
                        cost_before = state.cost_usd
                        carbon_before = state.carbon_kg
                    delta_mw = component.step(state, balance_mw, h, i)
                    balance_mw += delta_mw
                    out_mw += delta_mw
                    if batteries[j]:
                        if delta_mw < 0.0:
                            ev.charge_mwh[i] -= delta_mw * h
                        elif delta_mw > 0.0:
                            ev.discharge_mwh[i] += delta_mw * h
                        soc_mwh += state.soc_mwh
                    elif grids[j] and delta_mw > 0.0:
                        ev.grid_import_mwh[i] += delta_mw * h
                        if priced[j]:
                            ev.cost_usd[i] += state.cost_usd - cost_before
                            ev.carbon_kg[i] += (
                                state.carbon_kg - carbon_before
                            )
                ev.soc_mwh[i] = soc_mwh
                delivered_mw[i] = out_mw
            ev.delivered = np.clip(delivered_mw / capacity, 0.0, 1.0)
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
