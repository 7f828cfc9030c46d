"""Grid-side signals: carbon intensity and wholesale spot-price traces.

The paper's economic case (§2.1) is built on *time-varying* grid
realities — depressed and negative wholesale prices when renewable
output is high, carbon intensity that swings with the generation mix.
This module gives those signals the same first-class treatment as
power traces: a validated container on a :class:`~repro.units.TimeGrid`
(:class:`GridSignal`), typed subclasses for the two signals the supply
and planning layers consume (:class:`CarbonIntensityTrace`,
:class:`SpotPriceTrace`), and deterministic synthesizers:

- :meth:`CarbonIntensityTrace.daily_cycle` — a UK-realistic daily
  carbon cycle between 140 and 280 gCO2/kWh (evening-peaking, when
  gas fills the post-solar gap).
- :meth:`SpotPriceTrace.double_peak` — the classic double-peak
  wholesale day: morning and evening demand ramps over a flat base.
- :meth:`SpotPriceTrace.merit_order` — price anti-correlated with
  renewable output (``base - sensitivity * output + noise``), the
  merit-order effect behind negative-price episodes.  This is the
  *single* price generator in the library;
  :func:`repro.multisite.market.compare_revenue` draws its prices
  here.

Units: prices are currency per MWh (negatives allowed — that is the
point); carbon intensity is gCO2/kWh, which is numerically identical
to kgCO2/MWh, so ``energy_mwh * intensity`` is kilograms of CO2 with
no conversion factor.

Signals are content-hashable (:meth:`GridSignal.content_hash`) so the
experiments cache can key on them exactly like power traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from ..errors import TraceError
from ..units import TimeGrid
from .base import PowerTrace

__all__ = [
    "GridSignal",
    "CarbonIntensityTrace",
    "SpotPriceTrace",
]


@dataclass(frozen=True)
class GridSignal:
    """A scalar per-step signal on a :class:`TimeGrid`.

    Unlike :class:`~repro.traces.base.PowerTrace`, values may be
    negative (wholesale prices go through zero) — only finiteness and
    shape are enforced.

    Attributes:
        grid: The sampling grid.
        values: One finite value per grid slot.
        name: Human-readable label, e.g. ``"UK carbon"``.
        unit: Unit string, e.g. ``"$/MWh"`` or ``"gCO2/kWh"``.
    """

    grid: TimeGrid
    values: np.ndarray
    name: str = "signal"
    unit: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise TraceError(
                f"signal values must be 1-D, got shape {values.shape}"
            )
        if len(values) != self.grid.n:
            raise TraceError(
                f"signal has {len(values)} samples but grid expects"
                f" {self.grid.n}"
            )
        if np.any(~np.isfinite(values)):
            raise TraceError("signal contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.grid.n

    def slice(self, start_index: int, length: int) -> "GridSignal":
        """Contiguous sub-signal of ``length`` samples from ``start_index``."""
        sub = self.grid.subgrid(start_index, length)
        return replace(
            self,
            grid=sub,
            values=self.values[start_index : start_index + length],
        )

    def content_hash(self) -> str:
        """SHA-256 over grid shape and exact value bytes (cache keying)."""
        digest = hashlib.sha256()
        digest.update(type(self).__name__.encode())
        digest.update(self.grid.start.isoformat().encode())
        digest.update(repr(self.grid.step_seconds).encode())
        digest.update(repr(self.grid.n).encode())
        digest.update(self.unit.encode())
        digest.update(np.ascontiguousarray(self.values).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Shared synthesis helper
    # ------------------------------------------------------------------

    @staticmethod
    def _hours_of_day(grid: TimeGrid) -> np.ndarray:
        """Hour-of-day (fractional, [0, 24)) for each sample's left edge."""
        start = grid.start
        first = (
            start.hour
            + start.minute / 60.0
            + start.second / 3600.0
        )
        hours = first + np.arange(grid.n) * grid.step_hours
        return np.mod(hours, 24.0)


@dataclass(frozen=True)
class CarbonIntensityTrace(GridSignal):
    """Grid carbon intensity per step, in gCO2/kWh (== kgCO2/MWh).

    Values must be non-negative: a grid cannot un-emit.
    """

    name: str = "carbon"
    unit: str = "gCO2/kWh"

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values < 0.0):
            raise TraceError("carbon intensity cannot be negative")

    @classmethod
    def constant(
        cls, grid: TimeGrid, value: float, name: str = "carbon"
    ) -> "CarbonIntensityTrace":
        """A flat intensity — the degenerate (carbon-blind) case."""
        return cls(grid, np.full(grid.n, float(value)), name)

    @classmethod
    def daily_cycle(
        cls,
        grid: TimeGrid,
        low: float = 140.0,
        high: float = 280.0,
        peak_hour: float = 18.0,
        name: str = "carbon daily",
    ) -> "CarbonIntensityTrace":
        """A sinusoidal daily carbon cycle between ``low`` and ``high``.

        The defaults reproduce the UK-realistic 140–280 gCO2/kWh swing
        with the dirty peak in the early evening, when gas plants ramp
        to cover the post-solar demand peak.  Deterministic — same grid
        and parameters, same bytes.
        """
        if not 0.0 <= low <= high:
            raise TraceError(
                f"need 0 <= low <= high, got low={low} high={high}"
            )
        hours = cls._hours_of_day(grid)
        mid = 0.5 * (high + low)
        amp = 0.5 * (high - low)
        values = mid + amp * np.cos(
            2.0 * np.pi * (hours - peak_hour) / 24.0
        )
        return cls(grid, values, name)


@dataclass(frozen=True)
class SpotPriceTrace(GridSignal):
    """Wholesale spot price per step, currency/MWh (negatives allowed)."""

    name: str = "price"
    unit: str = "$/MWh"

    @classmethod
    def constant(
        cls, grid: TimeGrid, value: float, name: str = "price"
    ) -> "SpotPriceTrace":
        """A flat price — the degenerate (flat-tariff) case."""
        return cls(grid, np.full(grid.n, float(value)), name)

    @classmethod
    def double_peak(
        cls,
        grid: TimeGrid,
        base: float = 35.0,
        morning_peak: float = 25.0,
        evening_peak: float = 40.0,
        morning_hour: float = 8.0,
        evening_hour: float = 19.0,
        width_hours: float = 2.0,
        name: str = "price double-peak",
    ) -> "SpotPriceTrace":
        """The classic double-peak wholesale day.

        Two Gaussian demand ramps (morning commute, evening residential)
        over a flat base, wrapped on the 24-hour circle so a peak near
        midnight bleeds correctly into the next day.  Deterministic.
        """
        if width_hours <= 0.0:
            raise TraceError(
                f"peak width must be positive, got {width_hours}"
            )
        hours = cls._hours_of_day(grid)

        def bump(center: float, height: float) -> np.ndarray:
            # Wrapped circular distance in hours, so peaks near the
            # day boundary stay symmetric.
            dist = np.abs(hours - center)
            dist = np.minimum(dist, 24.0 - dist)
            return height * np.exp(-0.5 * (dist / width_hours) ** 2)

        values = (
            base
            + bump(morning_hour, morning_peak)
            + bump(evening_hour, evening_peak)
        )
        return cls(grid, values, name)

    @classmethod
    def merit_order(
        cls,
        trace: PowerTrace,
        base_price_per_mwh: float = 55.0,
        sensitivity_per_mwh: float = 70.0,
        noise_std_per_mwh: float = 8.0,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        name: str = "price merit-order",
    ) -> "SpotPriceTrace":
        """Price anti-correlated with renewable output (§2.1's mechanism).

        ``price = base - sensitivity * normalized_output + noise`` —
        high-output hours push the price through zero, reproducing the
        negative-price episodes the paper cites.  This is the single
        price generator in the library;
        :func:`repro.multisite.market.compare_revenue` prices exports
        with it, from a :class:`~repro.multisite.market.MarketModel`'s
        parameters.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, noise_std_per_mwh, len(trace))
        values = (
            base_price_per_mwh
            - sensitivity_per_mwh * trace.values
            + noise
        )
        return cls(trace.grid, values, name)
