"""The renewable site catalog and correlated multi-site trace synthesis.

Stands in for the EMHIRES dataset's >500 European sites.  The catalog
lists real European renewable-farm locations (coordinates of actual
solar/wind regions) including the three sites the paper's Figure 3
analyzes: Norwegian solar, UK wind, and Portuguese wind.  Multi-site
synthesis draws each site's daily weather regimes from a latent Gaussian
field whose correlation decays with geographic distance, so nearby sites
share weather while distant ones are nearly independent — exactly the
structure §2.3 exploits when searching for complementary groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, TraceError
from ..units import TimeGrid
from .base import PowerTrace
from .solar import SolarConfig, synthesize_solar
from .weather import (
    correlated_daily_latents,
    distance_correlation_matrix,
    regime_sequence_from_latent,
)
from .wind import WindConfig, synthesize_wind

EARTH_RADIUS_KM = 6371.0


def haversine_km(
    lat1_deg: float, lon1_deg: float, lat2_deg: float, lon2_deg: float
) -> float:
    """Great-circle distance between two (lat, lon) points, in km."""
    lat1, lon1, lat2, lon2 = map(
        math.radians, (lat1_deg, lon1_deg, lat2_deg, lon2_deg)
    )
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        dlon / 2
    ) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class Site:
    """One renewable generation site in the catalog.

    Attributes:
        name: Short unique identifier, e.g. ``"NO-solar"``.
        kind: ``"solar"`` or ``"wind"``.
        latitude_deg: Site latitude.
        longitude_deg: Site longitude.
        capacity_mw: Peak capacity (paper's assumption: 400 MW for all
            sites, the median peak capacity of large farms).
    """

    name: str
    kind: str
    latitude_deg: float
    longitude_deg: float
    capacity_mw: float = 400.0

    def __post_init__(self) -> None:
        if self.kind not in ("solar", "wind"):
            raise ConfigurationError(f"unknown site kind: {self.kind!r}")
        if not -90 <= self.latitude_deg <= 90:
            raise ConfigurationError(f"bad latitude: {self.latitude_deg}")
        if not -180 <= self.longitude_deg <= 180:
            raise ConfigurationError(f"bad longitude: {self.longitude_deg}")
        if self.capacity_mw <= 0:
            raise ConfigurationError(f"bad capacity: {self.capacity_mw}")

    def distance_km(self, other: "Site") -> float:
        """Great-circle distance to ``other`` in km."""
        return haversine_km(
            self.latitude_deg,
            self.longitude_deg,
            other.latitude_deg,
            other.longitude_deg,
        )


class SiteCatalog:
    """An ordered, name-indexed collection of :class:`Site` objects."""

    def __init__(self, sites: Iterable[Site]):
        self._sites: list[Site] = list(sites)
        names = [s.name for s in self._sites]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate site names in catalog")
        self._by_name: dict[str, Site] = {s.name: s for s in self._sites}

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Site:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no site named {name!r}; known: {sorted(self._by_name)}"
            ) from None

    @property
    def names(self) -> list[str]:
        """Site names in catalog order."""
        return [s.name for s in self._sites]

    def subset(self, names: Iterable[str]) -> "SiteCatalog":
        """A new catalog containing only the named sites, in given order."""
        return SiteCatalog(self[name] for name in names)

    def of_kind(self, kind: str) -> "SiteCatalog":
        """All sites of one energy kind."""
        return SiteCatalog(s for s in self._sites if s.kind == kind)

    def distance_matrix_km(self) -> np.ndarray:
        """Pairwise great-circle distances, shape (n, n)."""
        n = len(self._sites)
        distances = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = self._sites[i].distance_km(self._sites[j])
                distances[i, j] = distances[j, i] = d
        return distances

    def with_capacity(self, capacity_mw: float) -> "SiteCatalog":
        """Copy of the catalog with every site set to one capacity."""
        return SiteCatalog(
            replace(s, capacity_mw=capacity_mw) for s in self._sites
        )


def default_european_catalog() -> SiteCatalog:
    """Sites at real European renewable-farm regions.

    Includes the paper's Figure-3 trio (``NO-solar``, ``UK-wind``,
    ``PT-wind``) plus a spread of additional solar and wind locations so
    the co-scheduler's clique search (§3.1) has a realistic graph to
    work with.  All capacities default to the paper's 400 MW assumption.
    """
    return SiteCatalog(
        [
            # The Figure-3 trio.
            Site("NO-solar", "solar", 58.97, 5.73),     # Stavanger region
            Site("UK-wind", "wind", 53.50, 0.80),       # Humber / Hornsea
            Site("PT-wind", "wind", 40.72, -7.90),      # Viseu highlands
            # Additional wind sites.
            Site("DK-wind", "wind", 55.55, 8.10),       # Horns Rev
            Site("DE-wind", "wind", 54.00, 6.60),       # German Bight
            Site("NL-wind", "wind", 52.60, 4.40),       # Egmond aan Zee
            Site("IE-wind", "wind", 53.20, -9.00),      # Galway coast
            Site("ES-wind", "wind", 42.90, -8.10),      # Galicia
            Site("FR-wind", "wind", 49.60, -1.60),      # Normandy coast
            Site("SE-wind", "wind", 57.30, 12.10),      # Halland coast
            Site("BE-wind", "wind", 51.40, 2.90),       # Belgian offshore
            Site("IT-wind", "wind", 41.10, 15.50),      # Apulia ridge
            # Additional solar sites.
            Site("ES-solar", "solar", 37.40, -5.60),    # Andalusia
            Site("PT-solar", "solar", 38.10, -7.80),    # Alentejo
            Site("IT-solar", "solar", 40.60, 16.60),    # Basilicata
            Site("FR-solar", "solar", 43.60, 4.50),     # Provence
            Site("DE-solar", "solar", 51.30, 12.40),    # Saxony
            Site("GR-solar", "solar", 38.30, 23.80),    # Boeotia
            Site("BE-solar", "solar", 50.85, 4.35),     # Belgium (ELIA)
            Site("UK-solar", "solar", 51.10, -2.70),    # Somerset
            Site("PL-wind", "wind", 54.20, 16.20),      # Pomerania
            Site("AT-solar", "solar", 47.90, 16.50),    # Burgenland
            Site("RO-wind", "wind", 44.70, 28.60),      # Dobruja
            Site("FI-wind", "wind", 63.10, 21.60),      # Ostrobothnia
        ]
    )


def synthesize_catalog_traces(
    catalog: SiteCatalog,
    grid: TimeGrid,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    length_scale_km: float = 600.0,
    day_persistence: float = 0.55,
    solar_config: SolarConfig | None = None,
    wind_config: WindConfig | None = None,
) -> dict[str, PowerTrace]:
    """Generate spatially-correlated traces for every catalog site.

    Daily weather regimes are derived from one latent Gaussian field per
    day, correlated across sites with :func:`distance_correlation_matrix`
    and AR(1)-persistent across days.  Solar sites additionally use their
    own latitude in the clear-sky model, so a Norwegian solar site really
    does produce far less in winter than an Andalusian one.

    Args:
        catalog: Sites to synthesize.
        grid: Common sampling grid (must cover whole days).
        rng: Random generator; if omitted, built from ``seed``.
        seed: Convenience seed when ``rng`` is not supplied.
        length_scale_km: e-folding distance of weather correlation.
        day_persistence: AR(1) coefficient of day-to-day weather.
        solar_config: Base solar parameters (latitude overridden per site).
        wind_config: Base wind parameters shared by all wind sites.

    Returns:
        Mapping from site name to its :class:`PowerTrace`.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    steps_per_day = grid.steps_per_day()
    if grid.n % steps_per_day:
        raise TraceError("grid must cover a whole number of days")
    days = grid.n // steps_per_day
    correlation = distance_correlation_matrix(
        catalog.distance_matrix_km(), length_scale_km
    )
    latents = correlated_daily_latents(correlation, days, rng, day_persistence)

    base_solar = solar_config or SolarConfig()
    base_wind = wind_config or WindConfig()
    traces: dict[str, PowerTrace] = {}
    for index, site in enumerate(catalog):
        site_latent = latents[:, index]
        if site.kind == "solar":
            config = replace(
                base_solar,
                latitude_deg=site.latitude_deg,
                capacity_mw=site.capacity_mw,
            )
            regime_indices = regime_sequence_from_latent(
                config.regimes, site_latent
            )
            traces[site.name] = synthesize_solar(
                grid, config, rng, name=site.name,
                regime_indices=regime_indices,
            )
        else:
            config = replace(base_wind, capacity_mw=site.capacity_mw)
            regime_indices = regime_sequence_from_latent(
                config.regimes, site_latent
            )
            traces[site.name] = synthesize_wind(
                grid, config, rng, name=site.name,
                regime_indices=regime_indices,
            )
    return traces
