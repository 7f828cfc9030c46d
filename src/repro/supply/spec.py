"""Serializable supply specifications for the experiments layer.

A :class:`SupplySpec` is the declarative, content-hashable description
of a supply stack — what lives in a
:class:`~repro.experiments.scenario.Scenario` and behind the CLI's
``--battery-mwh`` / ``--grid-budget-mwh`` flags.  ``build()`` turns it
into the live :class:`~repro.supply.stack.SupplyStack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..traces import CarbonIntensityTrace, PowerTrace, SpotPriceTrace
from .components import (
    GRID_POLICIES,
    BatteryDispatch,
    PricedGridPower,
    SupplyComponent,
)
from .stack import SupplyStack

#: Supported dispatch modes. ``closed`` lets the simulators query the
#: stack each wake with live demand; ``open`` precomputes the delivered
#: series against the firming target (what the scheduler always uses).
SUPPLY_MODES = ("closed", "open")

#: Price-trace synthesizers a spec can name.  ``none`` leaves the grid
#: unpriced (a :class:`PricedGridPower` without a price series); the
#: rest map to :class:`~repro.traces.SpotPriceTrace` constructors.
PRICE_TRACES = ("none", "constant", "double_peak", "merit_order")

#: Carbon-trace synthesizers: ``daily`` is the UK-realistic 140–280
#: gCO2/kWh cycle of :meth:`CarbonIntensityTrace.daily_cycle`.
CARBON_TRACES = ("none", "constant", "daily")

#: Seed for the merit-order price noise — fixed so a spec is fully
#: deterministic and its scenario hash covers the generated series.
MERIT_ORDER_SEED = 0

#: Hours of storage a default-rated battery can sustain at full power —
#: the "4-hour system" convention shared with
#: :func:`repro.multisite.physical_battery.battery_capacity_for_stable_parity`.
DEFAULT_BATTERY_HOURS = 4.0


@dataclass(frozen=True)
class SupplySpec:
    """Declarative description of a site's supply stack.

    Attributes:
        battery_mwh: Battery energy capacity; 0 disables the battery.
        battery_power_mw: Battery power rating; ``None`` defaults to a
            4-hour system (``battery_mwh / 4``).
        battery_efficiency: Round-trip efficiency, paid on discharge.
        battery_initial_fraction: Initial state of charge.
        grid_budget_mwh: Firm grid energy purchasable over the run;
            0 disables the grid component.
        grid_power_mw: Grid import power limit; ``None`` is unlimited.
        mode: ``"closed"`` (in-loop dispatch against live demand) or
            ``"open"`` (precomputed series against the firming target).
        target_fraction: Open-loop firming target as a fraction of
            mean generation.
        price_trace: Spot-price synthesizer (:data:`PRICE_TRACES`);
            anything but ``"none"`` prices the grid component.
        carbon_trace: Carbon-intensity synthesizer
            (:data:`CARBON_TRACES`); idem.
        price_per_mwh: Level for ``price_trace="constant"``.
        carbon_per_mwh: Level for ``carbon_trace="constant"``
            (gCO2/kWh == kgCO2/MWh).
        grid_policy: Purchase policy (:data:`GRID_POLICIES`).
        price_threshold: Price cap for ``threshold``; ``dvb``'s
            theta-high.  ``None`` disables the cap.
        carbon_threshold: Carbon cap for ``threshold``; ``None``
            disables.
        dvb_virtual_mwh: ``dvb``'s virtual battery capacity; ``None``
            defaults to a quarter of the grid budget.
    """

    battery_mwh: float = 0.0
    battery_power_mw: float | None = None
    battery_efficiency: float = 0.85
    battery_initial_fraction: float = 0.5
    grid_budget_mwh: float = 0.0
    grid_power_mw: float | None = None
    mode: str = "closed"
    target_fraction: float = 0.5
    price_trace: str = "none"
    carbon_trace: str = "none"
    price_per_mwh: float = 0.0
    carbon_per_mwh: float = 0.0
    grid_policy: str = "always"
    price_threshold: float | None = None
    carbon_threshold: float | None = None
    dvb_virtual_mwh: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in SUPPLY_MODES:
            raise ConfigurationError(
                f"unknown supply mode {self.mode!r}; expected one of"
                f" {SUPPLY_MODES}"
            )
        if self.battery_mwh < 0:
            raise ConfigurationError(
                f"battery capacity must be >= 0: {self.battery_mwh}"
            )
        if self.grid_budget_mwh < 0:
            raise ConfigurationError(
                f"grid budget must be >= 0: {self.grid_budget_mwh}"
            )
        if self.price_trace not in PRICE_TRACES:
            raise ConfigurationError(
                f"unknown price trace {self.price_trace!r}; expected one"
                f" of {PRICE_TRACES}"
            )
        if self.carbon_trace not in CARBON_TRACES:
            raise ConfigurationError(
                f"unknown carbon trace {self.carbon_trace!r}; expected"
                f" one of {CARBON_TRACES}"
            )
        if self.grid_policy not in GRID_POLICIES:
            raise ConfigurationError(
                f"unknown grid policy {self.grid_policy!r}; expected one"
                f" of {GRID_POLICIES}"
            )
        if self.grid_policy == "dvb" and self.price_threshold is None:
            raise ConfigurationError(
                "grid_policy='dvb' needs a price_threshold (theta-high)"
            )

    @property
    def enabled(self) -> bool:
        """True when the spec produces a non-empty stack."""
        return self.battery_mwh > 0 or self.grid_budget_mwh > 0

    @property
    def priced(self) -> bool:
        """True when the grid component carries prices, carbon, or a policy."""
        return (
            self.price_trace != "none"
            or self.carbon_trace != "none"
            or self.grid_policy != "always"
        )

    def grid_signals(
        self, trace: PowerTrace
    ) -> tuple[SpotPriceTrace | None, CarbonIntensityTrace | None]:
        """The price/carbon signals this spec synthesizes on ``trace``.

        The supply stack and the planner's grid objective both read
        these, so the offline MIP prices the exact MWh the online
        dispatch pays for.
        """
        grid = trace.grid
        price: SpotPriceTrace | None = None
        carbon: CarbonIntensityTrace | None = None
        if self.price_trace == "constant":
            price = SpotPriceTrace.constant(grid, self.price_per_mwh)
        elif self.price_trace == "double_peak":
            price = SpotPriceTrace.double_peak(grid)
        elif self.price_trace == "merit_order":
            price = SpotPriceTrace.merit_order(
                trace, seed=MERIT_ORDER_SEED
            )
        if self.carbon_trace == "constant":
            carbon = CarbonIntensityTrace.constant(
                grid, self.carbon_per_mwh
            )
        elif self.carbon_trace == "daily":
            carbon = CarbonIntensityTrace.daily_cycle(grid)
        return price, carbon

    def components(
        self, trace: PowerTrace | None = None
    ) -> tuple[SupplyComponent, ...]:
        """The component tuple this spec describes (may be empty).

        Args:
            trace: The base generation trace — required when the spec
                is :attr:`priced`, since the price/carbon series are
                synthesized on its grid.
        """
        parts: list[SupplyComponent] = []
        if self.battery_mwh > 0:
            power = self.battery_power_mw
            if power is None:
                power = self.battery_mwh / DEFAULT_BATTERY_HOURS
            parts.append(
                BatteryDispatch(
                    capacity_mwh=self.battery_mwh,
                    max_power_mw=power,
                    efficiency=self.battery_efficiency,
                    initial_charge_fraction=self.battery_initial_fraction,
                )
            )
        if self.grid_budget_mwh > 0:
            signals: dict = {}
            if self.priced:
                if trace is None:
                    raise ConfigurationError(
                        "a priced supply spec needs the base trace to"
                        " synthesize its price/carbon series; pass it"
                        " to components()/build()"
                    )
                price, carbon = self.grid_signals(trace)
                vcap = 0.0
                if self.grid_policy == "dvb":
                    vcap = (
                        self.grid_budget_mwh / 4.0
                        if self.dvb_virtual_mwh is None
                        else self.dvb_virtual_mwh
                    )
                signals = dict(
                    price_per_mwh=None if price is None else price.values,
                    carbon_per_mwh=(
                        None if carbon is None else carbon.values
                    ),
                    policy=self.grid_policy,
                    price_threshold=float(
                        np.inf if self.price_threshold is None
                        else self.price_threshold
                    ),
                    carbon_threshold=float(
                        np.inf if self.carbon_threshold is None
                        else self.carbon_threshold
                    ),
                    dvb_capacity_mwh=vcap,
                )
            parts.append(
                PricedGridPower(
                    self.grid_budget_mwh, self.grid_power_mw, **signals
                )
            )
        return tuple(parts)

    def build(self, trace: PowerTrace | None = None) -> SupplyStack:
        """The live stack (empty pass-through when nothing is enabled)."""
        return SupplyStack(self.components(trace), self.target_fraction)

    # ------------------------------------------------------------------
    # Serialization (scenario content hashing)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; feeds Scenario content hashes verbatim."""
        return {
            "battery_mwh": self.battery_mwh,
            "battery_power_mw": self.battery_power_mw,
            "battery_efficiency": self.battery_efficiency,
            "battery_initial_fraction": self.battery_initial_fraction,
            "grid_budget_mwh": self.grid_budget_mwh,
            "grid_power_mw": self.grid_power_mw,
            "mode": self.mode,
            "target_fraction": self.target_fraction,
            "price_trace": self.price_trace,
            "carbon_trace": self.carbon_trace,
            "price_per_mwh": self.price_per_mwh,
            "carbon_per_mwh": self.carbon_per_mwh,
            "grid_policy": self.grid_policy,
            "price_threshold": self.price_threshold,
            "carbon_threshold": self.carbon_threshold,
            "dvb_virtual_mwh": self.dvb_virtual_mwh,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SupplySpec":
        """Inverse of :meth:`to_dict`; unknown keys rejected."""
        known = {
            "battery_mwh", "battery_power_mw", "battery_efficiency",
            "battery_initial_fraction", "grid_budget_mwh", "grid_power_mw",
            "mode", "target_fraction", "price_trace", "carbon_trace",
            "price_per_mwh", "carbon_per_mwh", "grid_policy",
            "price_threshold", "carbon_threshold", "dvb_virtual_mwh",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown supply spec fields: {sorted(unknown)}"
            )
        return cls(**data)


#: The disabled spec: empty stack, pass-through everywhere.
NO_SUPPLY = SupplySpec()
