"""Cluster power models: generation -> powered-core budget.

The paper scales the renewable trace so the cluster is fully powered at
the farm's max capacity, and absorbs dips by "powering down unallocated
cores".  The implied model — cluster power proportional to powered
cores — is :class:`LinearCorePower`, the default.
:class:`ServerGranularPower` refines it with per-server idle draw, where
power gates at server granularity (a server must be on, paying idle
power, for any of its cores to be powered); it exists for the power-
model ablation.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from .resources import ClusterSpec


@runtime_checkable
class PowerModel(Protocol):
    """Maps normalized generation to a powered-core budget."""

    def core_budget(self, norm_power: float) -> int:
        """Cores that may be powered when generation is ``norm_power``."""
        ...

    def core_budget_series(self, values: np.ndarray) -> np.ndarray:
        """:meth:`core_budget` over a whole trace, bit for bit."""
        ...

    def norm_for_cores(self, cores: int) -> float:
        """Smallest normalized power whose budget covers ``cores``."""
        ...


def _raise_to_cover(model: PowerModel, norm: float, cores: int) -> float:
    """Nudge ``norm`` up until ``model.core_budget(norm) >= cores``.

    Closed-form inverses of the budget maps land within one float ulp of
    the true threshold, but the forward map truncates, so a value that is
    an ulp low yields ``cores - 1``.  A few ``nextafter`` steps close the
    gap exactly; the loop is bounded because the forward map is monotone
    and reaches ``cores`` by ``norm = 1``.
    """
    norm = min(max(norm, 0.0), 1.0)
    while model.core_budget(norm) < cores and norm < 1.0:
        norm = min(np.nextafter(norm, np.inf), 1.0)
    return norm


def _validated_series(values: np.ndarray) -> np.ndarray:
    """Range-check a normalized power series (vectorized)."""
    values = np.asarray(values, dtype=float)
    if values.size:
        bad = (values < 0.0) | (values > 1.0 + 1e-9)
        if bad.any():
            offender = float(values[bad][0])
            raise ConfigurationError(
                f"normalized power out of range: {offender}"
            )
    return values


class LinearCorePower:
    """Power draw proportional to powered cores (the paper's model).

    At ``norm_power = 1.0`` every core can be powered; at 0.25, a
    quarter of them.  Budgets floor (never round up past generation).
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def core_budget(self, norm_power: float) -> int:
        """Cores powerable at ``norm_power`` (floored, linear)."""
        if not 0.0 <= norm_power <= 1.0 + 1e-9:
            raise ConfigurationError(
                f"normalized power out of range: {norm_power}"
            )
        return int(min(norm_power, 1.0) * self.cluster.total_cores)

    def core_budget_series(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`core_budget` over a whole trace.

        Identical arithmetic per element (float multiply, truncate), so
        the result matches the scalar path bit for bit.
        """
        values = _validated_series(values)
        return (
            np.minimum(values, 1.0) * self.cluster.total_cores
        ).astype(np.int64)

    def norm_for_cores(self, cores: int) -> float:
        """Inverse budget map: least norm power covering ``cores``."""
        total = self.cluster.total_cores
        if cores <= 0:
            return 0.0
        if cores >= total:
            return 1.0
        return _raise_to_cover(self, cores / total, cores)


class ServerGranularPower:
    """Server-granular gating with idle overhead.

    Each powered-on server pays ``idle_fraction`` of its max draw before
    any core is powered; cores then cost the incremental core power.
    Given a generation budget in watts, the model answers: powering on
    ``s`` fully-used servers costs ``s * max_power_w``; the usable core
    budget is the largest count achievable by greedily filling whole
    servers.  This models why consolidation (few, full servers) beats
    spreading for a VB site.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def core_budget(self, norm_power: float) -> int:
        """Cores powerable after paying per-server idle overhead."""
        if not 0.0 <= norm_power <= 1.0 + 1e-9:
            raise ConfigurationError(
                f"normalized power out of range: {norm_power}"
            )
        spec = self.cluster.server
        budget_w = min(norm_power, 1.0) * self.cluster.max_power_w
        idle_w = spec.max_power_w * spec.idle_fraction
        core_w = spec.core_power_w
        # Fill whole servers first (each costs idle + all cores), then a
        # partial server with as many cores as the remainder affords.
        full_server_w = idle_w + core_w * spec.cores
        full_servers = min(
            int(budget_w / full_server_w), self.cluster.n_servers
        )
        cores = full_servers * spec.cores
        remaining_w = budget_w - full_servers * full_server_w
        if full_servers < self.cluster.n_servers and remaining_w > idle_w:
            partial = int((remaining_w - idle_w) / core_w)
            cores += min(partial, spec.cores)
        return cores

    def core_budget_series(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`core_budget` over a whole trace.

        Mirrors the scalar arithmetic operation for operation (same
        float64 multiplies/divides, same truncations), so the series
        matches per-step calls exactly.
        """
        values = _validated_series(values)
        spec = self.cluster.server
        n_servers = self.cluster.n_servers
        budget_w = np.minimum(values, 1.0) * self.cluster.max_power_w
        idle_w = spec.max_power_w * spec.idle_fraction
        core_w = spec.core_power_w
        full_server_w = idle_w + core_w * spec.cores
        full_servers = np.minimum(
            (budget_w / full_server_w).astype(np.int64), n_servers
        )
        cores = full_servers * spec.cores
        remaining_w = budget_w - full_servers * full_server_w
        partial = np.minimum(
            ((remaining_w - idle_w) / core_w).astype(np.int64), spec.cores
        )
        add = (full_servers < n_servers) & (remaining_w > idle_w)
        return cores + np.where(add, partial, 0)

    def norm_for_cores(self, cores: int) -> float:
        """Inverse budget map: least norm power covering ``cores``.

        Costs ``cores`` greedily the way :meth:`core_budget` fills them
        — whole servers first, then a partial server paying its idle
        draw — and converts the watts back to a normalized value.
        """
        spec = self.cluster.server
        if cores <= 0:
            return 0.0
        cores = min(cores, self.cluster.total_cores)
        idle_w = spec.max_power_w * spec.idle_fraction
        core_w = spec.core_power_w
        full_server_w = idle_w + core_w * spec.cores
        full_servers, partial = divmod(cores, spec.cores)
        budget_w = full_servers * full_server_w
        if partial:
            budget_w += idle_w + core_w * partial
        return _raise_to_cover(
            self, budget_w / self.cluster.max_power_w, cores
        )
