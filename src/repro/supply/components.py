"""Stateful supply components: firm top-ups composed behind generation.

A component sits between the base renewable trace and the datacenter:
offered a power *balance* each step (surplus when generation exceeds
the dispatch target, deficit when it falls short), it may absorb part
of a surplus (a battery charging) or contribute toward a deficit (a
battery discharging, a firm grid purchase drawing down its budget).

Components are frozen parameter objects; all mutable dispatch state
lives in the small state records returned by :meth:`initial_state`, so
one component instance can drive any number of concurrent runs.  The
arithmetic of :class:`BatteryDispatch` deliberately mirrors
:func:`repro.multisite.physical_battery.smooth_with_battery` operation
for operation — the offline smoothing analysis and the in-loop
dispatch are the same physics, and the physical-battery module now
delegates here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError

#: Purchase policies a :class:`PricedGridPower` can apply at dispatch
#: time.  ``always`` buys whenever there is a deficit and budget (a
#: flat budget); ``threshold`` buys only when the step's price and
#: carbon intensity are at or below the configured caps; ``dvb`` runs
#: the dynamic-virtual-battery online policy (arXiv 2404.19387): the
#: acceptable price rises as the virtual battery drains, so urgency
#: grows with deferred deficits.
GRID_POLICIES = ("always", "threshold", "dvb")


@runtime_checkable
class SupplyComponent(Protocol):
    """One stage of a supply stack.

    ``step`` is offered the current power balance in MW (positive:
    surplus available to absorb; negative: deficit to fill) and returns
    the component's power delta in MW — negative when absorbing (at
    most the surplus), positive when contributing (at most the
    deficit).  Components are evaluated in stack order, each seeing the
    balance left over by the previous one.

    State records returned by :meth:`initial_state` should expose
    ``to_dict()`` / ``from_dict()`` snapshots (as the shipped
    :class:`BatteryState` / :class:`PricedGridState` do): a JSON-ready
    form a non-pickle checkpoint can serialize and rebuild without
    poking attributes ad hoc.
    """

    def initial_state(self) -> object:
        """Fresh mutable dispatch state for one run."""
        ...

    def step(
        self,
        state: object,
        balance_mw: float,
        step_hours: float,
        t: int = 0,
    ) -> float:
        """Dispatch one step; returns the delta in MW (see class doc).

        ``t`` is the grid index being dispatched — time-varying
        components (:class:`PricedGridPower`) use it to look up the
        step's price and carbon intensity; time-invariant ones ignore
        it.  Callers that iterate steps in order pass it positionally.
        """
        ...

    def pinned(self, state: object, surplus: bool) -> bool:
        """True when every step with the given balance sign is a no-op.

        "Pinned" means :meth:`step` provably returns a zero delta *and*
        leaves ``state`` unchanged for any ``balance_mw`` of the given
        sign (``surplus=True``: ``balance_mw >= 0``; ``surplus=False``:
        ``balance_mw < 0``).  The closed-loop simulators use this to
        skip whole dispatch windows; a conservative ``False`` is always
        safe.
        """
        ...


class BatteryState:
    """Mutable state-of-charge record for one :class:`BatteryDispatch` run."""

    __slots__ = ("soc_mwh",)

    def __init__(self, soc_mwh: float):
        self.soc_mwh = soc_mwh

    def to_dict(self) -> dict:
        """JSON-ready snapshot, inverted by :meth:`from_dict`."""
        return {"soc_mwh": self.soc_mwh}

    @classmethod
    def from_dict(cls, data: dict) -> "BatteryState":
        """Rebuild a state snapshotted by :meth:`to_dict`."""
        return cls(float(data["soc_mwh"]))


@dataclass(frozen=True)
class BatteryDispatch:
    """A stationary battery dispatched greedily against the balance.

    Charges from surplus and discharges into deficits, within the
    power rating, the capacity, and the stored energy; delivered
    energy pays the round-trip efficiency on discharge (stored MWh
    deplete by ``discharged / efficiency``), exactly like
    :class:`repro.multisite.physical_battery.BatterySpec`.

    Attributes:
        capacity_mwh: Usable energy capacity.
        max_power_mw: Charge and discharge power limit.
        efficiency: Round-trip efficiency, applied on discharge.
        initial_charge_fraction: State of charge at the start of a run.
    """

    capacity_mwh: float
    max_power_mw: float
    efficiency: float = 0.85
    initial_charge_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_mwh < 0:
            raise ConfigurationError(
                f"capacity must be >= 0: {self.capacity_mwh}"
            )
        if self.max_power_mw <= 0:
            raise ConfigurationError(
                f"power rating must be positive: {self.max_power_mw}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must be in (0,1]: {self.efficiency}"
            )
        if not 0.0 <= self.initial_charge_fraction <= 1.0:
            raise ConfigurationError(
                "initial charge must be in [0,1]:"
                f" {self.initial_charge_fraction}"
            )

    def initial_state(self) -> BatteryState:
        """Fresh SoC at the configured initial fraction."""
        return BatteryState(self.initial_charge_fraction * self.capacity_mwh)

    def step(
        self,
        state: BatteryState,
        balance_mw: float,
        step_hours: float,
        t: int = 0,
    ) -> float:
        """Charge from a surplus / discharge into a deficit.

        The branch structure and operation order replicate
        ``smooth_with_battery`` so the open-loop evaluation of a
        one-battery stack is bit-identical to the legacy smoothing.
        """
        if balance_mw >= 0.0:
            surplus_mw = min(balance_mw, self.max_power_mw)
            headroom_mwh = self.capacity_mwh - state.soc_mwh
            charge_mwh = min(surplus_mw * step_hours, headroom_mwh)
            state.soc_mwh += charge_mwh
            return -charge_mwh / step_hours
        deficit_mw = min(-balance_mw, self.max_power_mw)
        deliverable_mwh = state.soc_mwh * self.efficiency
        discharge_mwh = min(deficit_mw * step_hours, deliverable_mwh)
        state.soc_mwh -= discharge_mwh / self.efficiency
        return discharge_mwh / step_hours

    def pinned(self, state: BatteryState, surplus: bool) -> bool:
        """Full batteries ignore surpluses; empty ones ignore deficits.

        At zero headroom the surplus branch charges ``min(x, 0) = 0``
        and returns ``-0.0``; at zero deliverable energy the deficit
        branch discharges ``min(x, 0) = 0`` and returns ``0.0`` — in
        both cases the SoC is untouched and the delta adds nothing to
        the balance, so the step is a bit-exact no-op.

        The bounds must hold *exactly*: round-off in
        ``soc -= discharge / efficiency`` can leave the SoC a few ulps
        negative (or ``soc += charge`` a few ulps above capacity), and
        there :meth:`step` is not a no-op — it nudges the SoC back to
        the bound with a tiny nonzero delta.  Those steps stay live.
        """
        if surplus:
            headroom = self.capacity_mwh - state.soc_mwh
            return headroom == 0.0
        return (
            state.soc_mwh * self.efficiency == 0.0
            and not state.soc_mwh < 0.0
        )


class PricedGridState:
    """Budget plus cumulative cost/carbon for one :class:`PricedGridPower` run.

    Carries the remaining purchasable energy, the purchase ledger, and
    the dvb policy's virtual battery level.
    """

    __slots__ = ("remaining_mwh", "cost_usd", "carbon_kg", "virtual_mwh")

    def __init__(
        self,
        remaining_mwh: float,
        cost_usd: float = 0.0,
        carbon_kg: float = 0.0,
        virtual_mwh: float = 0.0,
    ):
        self.remaining_mwh = remaining_mwh
        self.cost_usd = cost_usd
        self.carbon_kg = carbon_kg
        self.virtual_mwh = virtual_mwh

    def to_dict(self) -> dict:
        """JSON-ready snapshot, inverted by :meth:`from_dict`."""
        return {
            "remaining_mwh": self.remaining_mwh,
            "cost_usd": self.cost_usd,
            "carbon_kg": self.carbon_kg,
            "virtual_mwh": self.virtual_mwh,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PricedGridState":
        """Rebuild a state snapshotted by :meth:`to_dict`."""
        return cls(
            float(data["remaining_mwh"]),
            float(data.get("cost_usd", 0.0)),
            float(data.get("carbon_kg", 0.0)),
            float(data.get("virtual_mwh", 0.0)),
        )


@dataclass(frozen=True, eq=False)
class PricedGridPower:
    """A firm grid purchase: a finite energy budget drawn on deficits.

    The in-loop, causal counterpart of the offline waterfilling in
    :mod:`repro.multisite.battery` — it spends the budget
    chronologically as deficits arrive (no future knowledge), so its
    leverage lower-bounds what the offline allocator achieves.

    Each step may carry a wholesale price and a carbon intensity: every
    MWh drawn accrues cost and emissions in the state ledger, and a
    purchase *policy* may decline a buy when the step is expensive or
    dirty.  Without price or carbon series and with the ``always``
    policy, the component is a flat budget whose ledger stays at zero.

    Attributes:
        budget_mwh: Total energy purchasable over the run.
        max_power_mw: Import power limit; unlimited when ``None``.
        price_per_mwh: Per-step price, aligned to the dispatch grid;
            ``None`` means free (price 0 everywhere).
        carbon_per_mwh: Per-step carbon intensity in kgCO2/MWh
            (numerically gCO2/kWh); ``None`` means carbon-free.
        policy: One of :data:`GRID_POLICIES`.
        price_threshold: Price cap for ``threshold``; ``dvb``'s
            maximum acceptable price (theta-high).  ``inf`` disables.
        carbon_threshold: Carbon cap for ``threshold``; ``inf``
            disables.
        dvb_theta_lo: ``dvb``'s acceptable price at a full virtual
            battery (theta-low).
        dvb_capacity_mwh: ``dvb``'s virtual battery capacity; deferred
            deficits drain it, purchases refill it, and the effective
            threshold interpolates theta-low → theta-high as it drains.
    """

    budget_mwh: float
    max_power_mw: float | None = None
    price_per_mwh: np.ndarray | None = None
    carbon_per_mwh: np.ndarray | None = None
    policy: str = "always"
    price_threshold: float = math.inf
    carbon_threshold: float = math.inf
    dvb_theta_lo: float = 0.0
    dvb_capacity_mwh: float = 0.0

    def __post_init__(self) -> None:
        if self.budget_mwh < 0:
            raise ConfigurationError(
                f"budget must be >= 0: {self.budget_mwh}"
            )
        if self.max_power_mw is not None and self.max_power_mw <= 0:
            raise ConfigurationError(
                f"power limit must be positive: {self.max_power_mw}"
            )
        if self.policy not in GRID_POLICIES:
            raise ConfigurationError(
                f"unknown grid policy {self.policy!r}; expected one of"
                f" {GRID_POLICIES}"
            )
        for field_name in ("price_per_mwh", "carbon_per_mwh"):
            series = getattr(self, field_name)
            if series is None:
                continue
            series = np.asarray(series, dtype=float)
            if series.ndim != 1:
                raise ConfigurationError(
                    f"{field_name} must be 1-D, got shape {series.shape}"
                )
            if np.any(~np.isfinite(series)):
                raise ConfigurationError(
                    f"{field_name} contains non-finite values"
                )
            object.__setattr__(self, field_name, series)
        if math.isnan(self.price_threshold) or math.isnan(
            self.carbon_threshold
        ):
            raise ConfigurationError("thresholds cannot be NaN")
        if self.policy == "dvb":
            if not math.isfinite(self.price_threshold):
                raise ConfigurationError(
                    "dvb needs a finite price_threshold (theta-high)"
                )
            if self.dvb_capacity_mwh <= 0.0:
                raise ConfigurationError(
                    "dvb needs a positive virtual battery capacity:"
                    f" {self.dvb_capacity_mwh}"
                )
            if self.dvb_theta_lo > self.price_threshold:
                raise ConfigurationError(
                    "dvb theta-low must not exceed the price threshold"
                )

    def initial_state(self) -> PricedGridState:
        """Fresh budget and ledger; the dvb virtual battery starts full."""
        return PricedGridState(
            self.budget_mwh,
            virtual_mwh=self.dvb_capacity_mwh if self.policy == "dvb" else 0.0,
        )

    def buys(self, state: PricedGridState, price: float, carbon: float) -> bool:
        """Whether the policy purchases at this step's price and carbon."""
        if self.policy == "always":
            return True
        if self.policy == "threshold":
            return (
                price <= self.price_threshold
                and carbon <= self.carbon_threshold
            )
        # dvb: the acceptable price interpolates theta-low (full virtual
        # battery, no urgency) to theta-high (empty, must buy).
        theta = self.dvb_theta_lo + (
            self.price_threshold - self.dvb_theta_lo
        ) * (1.0 - state.virtual_mwh / self.dvb_capacity_mwh)
        return price <= theta

    def step(
        self,
        state: PricedGridState,
        balance_mw: float,
        step_hours: float,
        t: int = 0,
    ) -> float:
        """Fill a deficit when the policy buys at this step; never absorbs."""
        if balance_mw >= 0.0 or state.remaining_mwh <= 0.0:
            return 0.0
        price = (
            0.0 if self.price_per_mwh is None
            else float(self.price_per_mwh[t])
        )
        carbon = (
            0.0 if self.carbon_per_mwh is None
            else float(self.carbon_per_mwh[t])
        )
        if not self.buys(state, price, carbon):
            if self.policy == "dvb":
                # A declined deficit drains the virtual battery by the
                # energy it chose not to buy, raising future urgency.
                state.virtual_mwh = max(
                    state.virtual_mwh - (-balance_mw) * step_hours, 0.0
                )
            return 0.0
        draw_mw = -balance_mw
        if self.max_power_mw is not None:
            draw_mw = min(draw_mw, self.max_power_mw)
        draw_mwh = min(draw_mw * step_hours, state.remaining_mwh)
        state.remaining_mwh -= draw_mwh
        state.cost_usd += draw_mwh * price
        state.carbon_kg += draw_mwh * carbon
        if self.policy == "dvb":
            state.virtual_mwh = min(
                state.virtual_mwh + draw_mwh, self.dvb_capacity_mwh
            )
        return draw_mwh / step_hours

    def pinned(self, state: PricedGridState, surplus: bool) -> bool:
        """Never absorbs surplus; an exhausted budget ignores deficits.

        An exhausted budget makes :meth:`step` return before any ledger
        or virtual-battery mutation, so it is a provable no-op even
        though prices vary and dvb state otherwise moves on declined
        deficits.
        """
        if surplus:
            return True
        return state.remaining_mwh <= 0.0
