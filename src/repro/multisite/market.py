"""Wholesale-market model: curtailment and negative prices (§2.1).

Two of the paper's four economic arguments are market phenomena: grid
operators increasingly *curtail* renewable farms to keep supply and
demand balanced (up to ~6% of generation and rising), and high
renewable output depresses wholesale prices, "including negative
prices".  A VB consumes that energy on site at full compute value.

This module synthesizes a wholesale price series anti-correlated with
renewable output (the mechanism behind both effects), derives the
curtailment the grid would impose, and compares the revenue of
exporting to the grid against running compute — quantifying §2.1's
"generate high value from it".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..traces import PowerTrace, SpotPriceTrace


@dataclass(frozen=True)
class MarketModel:
    """Wholesale price dynamics driven by renewable penetration.

    The clearing price falls as renewable output rises (merit-order
    effect): ``price = base - sensitivity * normalized_output + noise``.
    High-output hours push the price through zero — the negative-price
    episodes of the paper's reference [4] — and the grid curtails
    whatever it cannot absorb above an output threshold.

    Attributes:
        base_price_per_mwh: Price at zero renewable output.
        sensitivity_per_mwh: Price drop from zero to full output.
        noise_std_per_mwh: Demand-side price noise (i.i.d.).
        curtailment_threshold: Normalized output above which the grid
            curtails the excess entirely.
        compute_value_per_mwh: Revenue a VB earns per MWh turned into
            compute (cloud margin on the energy).
    """

    base_price_per_mwh: float = 55.0
    sensitivity_per_mwh: float = 70.0
    noise_std_per_mwh: float = 8.0
    curtailment_threshold: float = 0.85
    compute_value_per_mwh: float = 120.0

    def __post_init__(self) -> None:
        if self.base_price_per_mwh < 0:
            raise ConfigurationError(
                f"base price must be >= 0: {self.base_price_per_mwh}"
            )
        if self.sensitivity_per_mwh < 0 or self.noise_std_per_mwh < 0:
            raise ConfigurationError("price dynamics must be >= 0")
        if not 0.0 < self.curtailment_threshold <= 1.0:
            raise ConfigurationError(
                "curtailment threshold must be in (0,1]:"
                f" {self.curtailment_threshold}"
            )
        if self.compute_value_per_mwh <= 0:
            raise ConfigurationError(
                "compute value must be positive:"
                f" {self.compute_value_per_mwh}"
            )

    def curtailed_series_mwh(self, trace: PowerTrace) -> np.ndarray:
        """Energy the grid refuses per step (output above threshold)."""
        excess = np.clip(
            trace.values - self.curtailment_threshold, 0.0, None
        )
        return excess * trace.capacity_mw * trace.grid.step_hours


@dataclass(frozen=True)
class RevenueComparison:
    """Export-to-grid vs consume-as-compute over one trace.

    Attributes:
        export_revenue: Selling all *accepted* energy at the wholesale
            price (curtailed energy earns nothing; negative-price hours
            cost the exporter).
        compute_revenue: Running compute on all generated energy at the
            compute value (curtailment and prices are irrelevant — the
            electrons never leave the site).
        curtailed_mwh: Energy the grid would have refused.
        negative_price_fraction: Share of steps with a negative price.
    """

    export_revenue: float
    compute_revenue: float
    curtailed_mwh: float
    negative_price_fraction: float

    @property
    def uplift(self) -> float:
        """Compute revenue relative to export revenue.

        ``inf`` when exporting earns nothing or loses money — exactly
        the negative-price regime the paper highlights.
        """
        if self.export_revenue <= 0:
            return float("inf")
        return self.compute_revenue / self.export_revenue


def compare_revenue(
    trace: PowerTrace,
    market: MarketModel | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> RevenueComparison:
    """Bill one site's generation both ways (§2.1's economics).

    Export: every step sells ``min(output, threshold)`` of capacity at
    the step's wholesale price — negative prices *charge* the exporter,
    as they do real farms.  Compute: every generated MWh earns the
    compute value, curtailment-free.
    """
    market = market or MarketModel()
    prices = SpotPriceTrace.merit_order(
        trace,
        base_price_per_mwh=market.base_price_per_mwh,
        sensitivity_per_mwh=market.sensitivity_per_mwh,
        noise_std_per_mwh=market.noise_std_per_mwh,
        rng=rng,
        seed=seed,
    ).values
    step_energy = trace.power_mw() * trace.grid.step_hours
    curtailed = market.curtailed_series_mwh(trace)
    accepted = step_energy - curtailed
    export = float(np.sum(accepted * prices))
    compute = float(np.sum(step_energy)) * market.compute_value_per_mwh
    return RevenueComparison(
        export_revenue=export,
        compute_revenue=compute,
        curtailed_mwh=float(curtailed.sum()),
        negative_price_fraction=float(np.mean(prices < 0.0)),
    )
