"""Declarative experiment scenarios.

A :class:`Scenario` is a frozen, serializable description of one
trace→forecast→schedule→execute→analyze experiment: which sites, over
which time grid, with which workload, forecaster, scheduling policies,
cluster shape, and seeds.  Every entry point (CLI, benches, examples)
builds a ``Scenario`` and hands it to
:class:`~repro.experiments.runner.Runner` instead of hand-wiring the
pipeline.

Scenarios round-trip losslessly through :meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict` and have a *stable* content hash (canonical
JSON → SHA-256, no dependence on ``PYTHONHASHSEED``), which is what the
artifact cache keys on.  Fragment hashes (:meth:`Scenario.trace_key`,
:meth:`Scenario.forecast_key`, :meth:`Scenario.solve_key`) cover only
the inputs each pipeline stage actually consumes, so changing a policy
invalidates its solve without invalidating the traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..forecast import (
    ClimatologyForecaster,
    NoisyOracleForecaster,
    PersistenceForecaster,
)
from ..forecast.models import HorizonNoise
from ..supply import SupplySpec
from ..traces import SiteCatalog, default_european_catalog
from ..units import TimeGrid
from .defaults import (
    CACHE_CODE_VERSION,
    DEFAULT_CORES_PER_SITE,
    DEFAULT_UTILIZATION,
)

#: Version of the serialized scenario format.
SCHEMA_VERSION = 1

_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendition: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fragment_hash(fragment: Mapping[str, Any]) -> str:
    """Stable SHA-256 content key of a scenario fragment.

    The code version is folded in so artifacts cached by older code are
    never mistaken for current ones.
    """
    payload = canonical_json(
        {"code_version": CACHE_CODE_VERSION, "fragment": fragment}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def grid_to_dict(grid: TimeGrid) -> dict[str, Any]:
    """Serialize a :class:`TimeGrid` to plain JSON types."""
    return {
        "start": grid.start.strftime(_TIMESTAMP_FORMAT),
        "step_seconds": grid.step_seconds,
        "n": grid.n,
    }


def grid_from_dict(data: Mapping[str, Any]) -> TimeGrid:
    """Rebuild a :class:`TimeGrid` written by :func:`grid_to_dict`."""
    try:
        return TimeGrid(
            datetime.strptime(data["start"], _TIMESTAMP_FORMAT),
            timedelta(seconds=float(data["step_seconds"])),
            int(data["n"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"malformed grid dict: {data!r}") from exc


def trace_fragment(
    catalog: SiteCatalog, grid: TimeGrid, seed: int
) -> dict[str, Any]:
    """The inputs that determine a multi-site trace synthesis.

    Includes each site's coordinates and capacity (synthesis correlates
    weather by distance), so editing the catalog invalidates the cache.
    """
    return {
        "kind": "traces",
        "schema": SCHEMA_VERSION,
        "sites": [asdict(site) for site in catalog],
        "grid": grid_to_dict(grid),
        "seed": seed,
    }


@dataclass(frozen=True)
class WorkloadSpec:
    """What runs on the sites.

    Attributes:
        kind: ``"applications"`` (the §3.1 co-scheduler pipeline) or
            ``"vm_requests"`` (the §3 single-site Datacenter pipeline).
        count: Number of applications (``applications`` mode only).
        mean_vm_count: Mean of the per-application VM-count distribution.
        mean_duration_days: Mean application duration.
        stable_fraction: STABLE share of each application's VMs.
        arrival_window_fraction: Applications arrive uniformly over this
            leading fraction of the grid.
        utilization: Admission / demand-matching utilization target
            (``vm_requests`` mode; the paper uses 0.70).
    """

    kind: str = "applications"
    count: int = 150
    mean_vm_count: float = 24.0
    mean_duration_days: float = 3.0
    stable_fraction: float = 0.5
    arrival_window_fraction: float = 0.5
    utilization: float = DEFAULT_UTILIZATION

    def __post_init__(self) -> None:
        if self.kind not in ("applications", "vm_requests"):
            raise ConfigurationError(
                f"unknown workload kind: {self.kind!r}"
            )
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1: {self.count}")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in (0,1]: {self.utilization}"
            )


@dataclass(frozen=True)
class ForecasterSpec:
    """Which forecaster plans the placement, and its noise calibration.

    Attributes:
        kind: ``"noisy_oracle"`` (default, the paper's calibrated
            forecaster), ``"persistence"``, or ``"climatology"``.
        noise_scale: Sigma at a 1-hour lead (noisy oracle only).
        noise_exponent: Power-law growth of sigma with lead hours.
        max_sigma: Ceiling on sigma.
        correlation: AR(1) coefficient of the within-window error.
    """

    kind: str = "noisy_oracle"
    noise_scale: float = 0.069
    noise_exponent: float = 0.45
    max_sigma: float = 1.2
    correlation: float = 0.97

    def __post_init__(self) -> None:
        if self.kind not in ("noisy_oracle", "persistence", "climatology"):
            raise ConfigurationError(
                f"unknown forecaster kind: {self.kind!r}"
            )

    def build(self, seed: int):
        """Instantiate the forecaster this spec describes."""
        if self.kind == "persistence":
            return PersistenceForecaster()
        if self.kind == "climatology":
            return ClimatologyForecaster()
        noise = HorizonNoise(
            scale=self.noise_scale,
            exponent=self.noise_exponent,
            max_sigma=self.max_sigma,
            correlation=self.correlation,
        )
        return NoisyOracleForecaster(noise=noise, seed=seed)


@dataclass(frozen=True)
class PolicySpec:
    """One scheduling policy to evaluate.

    Attributes:
        name: Display label (``"Greedy"``, ``"MIP-peak"``, ...); must be
            unique within a scenario.
        kind: ``"greedy"``, ``"mip"``, or ``"rolling_mip"``.
        peak_weight: O2 weight; positive gives the paper's *MIP-peak*.
        time_limit_s: HiGHS wall-clock limit per solve.
        window_steps: Lookahead per solve (``rolling_mip`` only).
        day_ahead_forecasts: Refresh forecasts at each rolling solve
            (``rolling_mip`` only) instead of slicing the initial ones.
        decompose: Decomposition spec for ``"mip"`` policies,
            ``"window:N"`` (e.g. ``"window:24"``), parsed by
            :meth:`repro.sched.DecomposeSpec.parse`; ``None`` solves
            monolithically.  Part of the result cache key.
        carbon_weight: Weight on grid-import carbon in the MIP
            objective ($ per kgCO2-equivalent); only meaningful when
            the scenario's supply spec prices the grid.  Part of the
            result cache key.
    """

    name: str
    kind: str = "mip"
    peak_weight: float = 0.0
    time_limit_s: float = 120.0
    window_steps: int = 24
    day_ahead_forecasts: bool = True
    decompose: str | None = None
    carbon_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("greedy", "mip", "rolling_mip"):
            raise ConfigurationError(
                f"unknown policy kind: {self.kind!r}"
            )
        if self.carbon_weight < 0:
            raise ConfigurationError(
                f"carbon_weight must be >= 0: {self.carbon_weight}"
            )
        if not self.name:
            raise ConfigurationError("policy needs a non-empty name")
        if self.decompose is not None:
            if self.kind != "mip":
                raise ConfigurationError(
                    "decompose applies to 'mip' policies only, got"
                    f" kind={self.kind!r}"
                )
            from ..sched import DecomposeSpec

            try:
                DecomposeSpec.parse(self.decompose)
            except Exception as exc:
                raise ConfigurationError(
                    f"invalid decompose spec {self.decompose!r}: {exc}"
                ) from exc

    def build(self, capacity_provider=None):
        """Instantiate the scheduler this spec describes.

        Args:
            capacity_provider: ``(site, issue_step, horizon) -> cores``
                callable for day-ahead rolling solves; built by the
                runner from the scenario's forecaster.
        """
        from ..sched import (
            GreedyScheduler,
            MIPScheduler,
            RollingMIPScheduler,
        )

        if self.kind == "greedy":
            return GreedyScheduler()
        if self.kind == "rolling_mip":
            return RollingMIPScheduler(
                window_steps=self.window_steps,
                capacity_provider=(
                    capacity_provider if self.day_ahead_forecasts else None
                ),
                time_limit_s=self.time_limit_s,
                peak_weight=self.peak_weight,
            )
        return MIPScheduler(
            peak_weight=self.peak_weight,
            time_limit_s=self.time_limit_s,
            decompose=self.decompose,
        )


@dataclass(frozen=True)
class ComputeSpec:
    """Shape of the co-located compute the scheduler sees.

    Attributes:
        cores_per_site: Physical core capacity per site.
        utilization_cap: Maximum allocated fraction of a site's cores.
        bytes_per_core: Migration traffic per displaced stable core;
            derived from the workload's memory mix when ``None``.
    """

    cores_per_site: int = DEFAULT_CORES_PER_SITE
    utilization_cap: float = 0.9
    bytes_per_core: float | None = None

    def __post_init__(self) -> None:
        if self.cores_per_site < 1:
            raise ConfigurationError(
                f"cores_per_site must be >= 1: {self.cores_per_site}"
            )
        if not 0.0 < self.utilization_cap <= 1.0:
            raise ConfigurationError(
                f"utilization cap must be in (0,1]: {self.utilization_cap}"
            )


@dataclass(frozen=True)
class Scenario:
    """A complete, hashable description of one experiment.

    Attributes:
        name: Human label; part of the content hash but *not* of any
            artifact fragment, so renaming a scenario keeps its cache.
        sites: Catalog site names, in evaluation order.
        grid: The experiment time grid.
        workload: What runs on the sites.
        forecaster: How capacity is predicted for planning.
        policies: Scheduling policies to evaluate (``applications``
            mode; may be empty for ``vm_requests`` scenarios).
        compute: Cluster shape per site.
        supply: Per-site supply stack (battery / firm grid) composed
            behind every trace; the default is disabled (pass-through,
            hash-stable with pre-supply scenarios only via the cache
            version bump).
        seed: Master seed; per-stage seeds derive from it unless pinned.
        trace_seed: Explicit trace-synthesis seed (default ``seed``).
        workload_seed: Explicit workload seed (default ``seed + 1``).
        forecast_seed: Explicit forecaster seed (default ``seed + 2``).
    """

    name: str
    sites: tuple[str, ...]
    grid: TimeGrid
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    forecaster: ForecasterSpec = field(default_factory=ForecasterSpec)
    policies: tuple[PolicySpec, ...] = ()
    compute: ComputeSpec = field(default_factory=ComputeSpec)
    supply: SupplySpec = field(default_factory=SupplySpec)
    seed: int = 0
    trace_seed: int | None = None
    workload_seed: int | None = None
    forecast_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if not self.sites:
            raise ConfigurationError("scenario needs at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ConfigurationError(
                f"duplicate sites in scenario: {self.sites}"
            )
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate policy names: {names}")

    # ------------------------------------------------------------------
    # Seeds
    # ------------------------------------------------------------------

    @property
    def effective_trace_seed(self) -> int:
        """Seed driving trace synthesis."""
        return self.seed if self.trace_seed is None else self.trace_seed

    @property
    def effective_workload_seed(self) -> int:
        """Seed driving workload generation."""
        if self.workload_seed is None:
            return self.seed + 1
        return self.workload_seed

    @property
    def effective_forecast_seed(self) -> int:
        """Seed driving the forecaster."""
        if self.forecast_seed is None:
            return self.seed + 2
        return self.forecast_seed

    def seeds_dict(self) -> dict[str, int]:
        """All effective seeds, for the run manifest."""
        return {
            "master": self.seed,
            "traces": self.effective_trace_seed,
            "workload": self.effective_workload_seed,
            "forecast": self.effective_forecast_seed,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types rendition of this scenario."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "sites": list(self.sites),
            "grid": grid_to_dict(self.grid),
            "workload": asdict(self.workload),
            "forecaster": asdict(self.forecaster),
            "policies": [asdict(p) for p in self.policies],
            "compute": asdict(self.compute),
            "supply": self.supply.to_dict(),
            "seed": self.seed,
            "trace_seed": self.trace_seed,
            "workload_seed": self.workload_seed,
            "forecast_seed": self.forecast_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario written by :meth:`to_dict`.

        Raises:
            ConfigurationError: on a wrong schema version or malformed
                fields.
        """
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported scenario schema {schema!r}"
                f" (expected {SCHEMA_VERSION})"
            )
        try:
            return cls(
                name=data["name"],
                sites=tuple(data["sites"]),
                grid=grid_from_dict(data["grid"]),
                workload=WorkloadSpec(**data["workload"]),
                forecaster=ForecasterSpec(**data["forecaster"]),
                policies=tuple(
                    PolicySpec(**p) for p in data.get("policies", [])
                ),
                compute=ComputeSpec(**data["compute"]),
                supply=SupplySpec.from_dict(data.get("supply", {})),
                seed=int(data["seed"]),
                trace_seed=data.get("trace_seed"),
                workload_seed=data.get("workload_seed"),
                forecast_seed=data.get("forecast_seed"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed scenario dict: {exc}"
            ) from exc

    def to_json(self) -> str:
        """Canonical JSON text of this scenario."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Content hashes
    # ------------------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 of the canonical serialization — stable across
        processes and machines."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def catalog(self) -> SiteCatalog:
        """The scenario's sites resolved against the default catalog."""
        return default_european_catalog().subset(self.sites)

    def trace_fragment(self) -> dict[str, Any]:
        """Inputs that determine the synthesized traces."""
        return trace_fragment(
            self.catalog(), self.grid, self.effective_trace_seed
        )

    def trace_key(self) -> str:
        """Cache key for the synthesized multi-site traces."""
        return fragment_hash(self.trace_fragment())

    def forecast_fragment(self) -> dict[str, Any]:
        """Inputs that determine the forecast capacity series.

        The supply spec participates: capacities are derived from the
        stack firmed open-loop into the forecast, so a battery change
        must invalidate cached capacity arrays (and, transitively,
        every solve built on them).
        """
        return {
            "kind": "forecast-capacity",
            "trace": self.trace_fragment(),
            "forecaster": asdict(self.forecaster),
            "seed": self.effective_forecast_seed,
            "cores_per_site": self.compute.cores_per_site,
            "supply": self.supply.to_dict(),
        }

    def forecast_key(self) -> str:
        """Cache key for the per-site forecast capacity arrays."""
        return fragment_hash(self.forecast_fragment())

    def solve_fragment(self, policy: PolicySpec) -> dict[str, Any]:
        """Inputs that determine one policy's placement solve."""
        return {
            "kind": "solve",
            "forecast": self.forecast_fragment(),
            "workload": asdict(self.workload),
            "workload_seed": self.effective_workload_seed,
            "compute": asdict(self.compute),
            "policy": asdict(policy),
        }

    def solve_key(self, policy: PolicySpec) -> str:
        """Cache key for one policy's placement."""
        return fragment_hash(self.solve_fragment(policy))
