"""Content-addressed on-disk cache for expensive pipeline artifacts.

The heavy intermediates of an experiment — months of synthesized
15-minute traces, forecast capacity series, MIP solves — are pure
functions of a scenario fragment.  :class:`ArtifactCache` stores them
under the fragment's SHA-256 content key (plus a code-version salt, see
:data:`~repro.experiments.defaults.CACHE_CODE_VERSION`), so a repeated
bench or CLI run with an unchanged scenario loads bit-identical arrays
from disk instead of regenerating them.

The cache directory defaults to ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro``.  Every consumer exposes an escape hatch (the CLI's
``--no-cache``, ``Runner(use_cache=False)``); a missing, corrupt, or
truncated entry is always treated as a miss and regenerated.

Layout: ``<dir>/<key[:2]>/<key>.npz`` for array bundles and ``.json``
for structured artifacts.  Writes go through a temp file + ``os.replace``
so concurrent runs never observe a half-written entry.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .. import obs
from ..traces import PowerTrace, SiteCatalog, synthesize_catalog_traces
from ..units import TimeGrid
from .scenario import fragment_hash, grid_from_dict, grid_to_dict, trace_fragment

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache directory (``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def default_manifest_dir() -> Path:
    """Where run manifests land when the caller gives no directory."""
    return default_cache_dir() / "manifests"


class ArtifactCache:
    """A content-addressed store of JSON and numpy-array artifacts.

    Args:
        directory: Cache root; resolved via :func:`default_cache_dir`
            when omitted.

    Attributes:
        hits: Successful lookups since construction.
        misses: Failed lookups since construction.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"ArtifactCache({str(self.directory)!r},"
            f" hits={self.hits}, misses={self.misses})"
        )

    # ------------------------------------------------------------------

    def _path(self, key: str, suffix: str) -> Path:
        return self.directory / key[:2] / f"{key}.{suffix}"

    def _atomic_write(self, path: Path, write) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, suffix=path.suffix
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(handle, "wb") as stream:
                write(stream)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------

    def get_json(self, key: str) -> Any | None:
        """Load a JSON artifact, or ``None`` on miss/corruption."""
        path = self._path(key, "json")
        try:
            with path.open("rb") as stream:
                value = json.load(stream)
        except (OSError, ValueError):
            self.misses += 1
            obs.count("cache.miss", kind="json")
            return None
        self.hits += 1
        obs.count("cache.hit", kind="json")
        return value

    def put_json(self, key: str, value: Any) -> Path:
        """Store a JSON-serializable artifact under ``key``."""
        path = self._path(key, "json")
        payload = json.dumps(value).encode()
        self._atomic_write(path, lambda stream: stream.write(payload))
        return path

    # ------------------------------------------------------------------
    # Array artifacts
    # ------------------------------------------------------------------

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load an array bundle, or ``None`` on miss/corruption."""
        path = self._path(key, "npz")
        try:
            with np.load(path, allow_pickle=False) as bundle:
                value = {name: bundle[name] for name in bundle.files}
        except (OSError, ValueError, zipfile.BadZipFile):
            self.misses += 1
            obs.count("cache.miss", kind="npz")
            return None
        self.hits += 1
        obs.count("cache.hit", kind="npz")
        return value

    def put_arrays(
        self, key: str, arrays: Mapping[str, np.ndarray]
    ) -> Path:
        """Store a bundle of named arrays under ``key``."""
        path = self._path(key, "npz")
        self._atomic_write(
            path, lambda stream: np.savez(stream, **dict(arrays))
        )
        return path


# ----------------------------------------------------------------------
# Typed artifact helpers
# ----------------------------------------------------------------------

_META_KEY = "__meta__"


def put_traces(
    cache: ArtifactCache, key: str, traces: Mapping[str, PowerTrace]
) -> None:
    """Store a site-name → :class:`PowerTrace` mapping under ``key``."""
    meta = {
        "order": list(traces),
        "sites": {
            name: {
                "name": trace.name,
                "kind": trace.kind,
                "capacity_mw": trace.capacity_mw,
                "grid": grid_to_dict(trace.grid),
            }
            for name, trace in traces.items()
        },
    }
    arrays: dict[str, np.ndarray] = {
        f"values::{name}": trace.values for name, trace in traces.items()
    }
    arrays[_META_KEY] = np.array(json.dumps(meta))
    cache.put_arrays(key, arrays)


def get_traces(
    cache: ArtifactCache, key: str
) -> dict[str, PowerTrace] | None:
    """Load traces stored by :func:`put_traces`, or ``None`` on miss."""
    bundle = cache.get_arrays(key)
    if bundle is None:
        return None
    try:
        meta = json.loads(str(bundle[_META_KEY][()]))
        traces: dict[str, PowerTrace] = {}
        for name in meta["order"]:
            site = meta["sites"][name]
            traces[name] = PowerTrace(
                grid=grid_from_dict(site["grid"]),
                values=bundle[f"values::{name}"],
                name=site["name"],
                kind=site["kind"],
                capacity_mw=float(site["capacity_mw"]),
            )
    except (KeyError, ValueError):
        cache.hits -= 1
        cache.misses += 1
        obs.count("cache.miss", kind="traces-meta")
        return None
    return traces


def catalog_trace_key(
    catalog: SiteCatalog, grid: TimeGrid, seed: int
) -> str:
    """Content key of one catalog trace synthesis."""
    return fragment_hash(trace_fragment(catalog, grid, seed))


def stage_catalog_traces(
    catalog: SiteCatalog,
    grid: TimeGrid,
    seed: int,
    cache: ArtifactCache | None,
) -> tuple[dict[str, PowerTrace], bool | None]:
    """Load catalog traces from the cache, or synthesize and store them.

    Returns:
        The traces, plus the cache lookup's outcome: ``True`` on a hit,
        ``False`` on a miss, ``None`` when ``cache`` is ``None`` (no
        lookup, no write).
    """
    if cache is None:
        return synthesize_catalog_traces(catalog, grid, seed=seed), None
    key = catalog_trace_key(catalog, grid, seed)
    traces = get_traces(cache, key)
    if traces is not None:
        return traces, True
    traces = synthesize_catalog_traces(catalog, grid, seed=seed)
    put_traces(cache, key, traces)
    return traces, False


def cached_catalog_traces(
    catalog: SiteCatalog,
    grid: TimeGrid,
    seed: int,
    cache: ArtifactCache | None,
) -> dict[str, PowerTrace]:
    """Synthesize catalog traces through the cache.

    Bit-identical to calling
    :func:`~repro.traces.synthesize_catalog_traces` directly: the cache
    key covers the sites (with coordinates), grid, and seed, and cached
    arrays round-trip exactly.  Pass ``cache=None`` to bypass caching.
    """
    return stage_catalog_traces(catalog, grid, seed, cache)[0]


# ----------------------------------------------------------------------
# Placement (MIP solve) serialization
# ----------------------------------------------------------------------


def placement_to_jsonable(placement) -> dict[str, Any]:
    """Serialize a :class:`~repro.sched.Placement` to JSON types."""
    return {
        "assignment": {
            str(app_id): dict(per_site)
            for app_id, per_site in placement.assignment.items()
        },
        "planned_displacement": {
            name: np.asarray(series, dtype=float).tolist()
            for name, series in placement.planned_displacement.items()
        },
        "preemptive": bool(placement.preemptive),
        "planned_grid_import": {
            name: np.asarray(series, dtype=float).tolist()
            for name, series in placement.planned_grid_import.items()
        },
    }


def placement_from_jsonable(data: Mapping[str, Any]):
    """Inverse of :func:`placement_to_jsonable`."""
    from ..sched import Placement

    return Placement(
        assignment={
            int(app_id): {
                site: int(count) for site, count in per_site.items()
            }
            for app_id, per_site in data["assignment"].items()
        },
        planned_displacement={
            name: np.asarray(series, dtype=float)
            for name, series in data["planned_displacement"].items()
        },
        preemptive=bool(data["preemptive"]),
        planned_grid_import={
            name: np.asarray(series, dtype=float)
            for name, series in data.get(
                "planned_grid_import", {}
            ).items()
        },
    )
