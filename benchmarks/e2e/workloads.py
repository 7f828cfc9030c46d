"""The four workloads of the end-to-end benchmark.

Each workload drives one path users run, through its public entry
point, with inputs generated from the benchmark seed:

``plan-week``
    ``Runner.run`` on Table-1 scenarios (the paper's §3.1 pipeline:
    forecast → plan → execute → summarize) with four policies, each on
    a cold artifact cache.  Successive passes take successive scenarios
    from a list of 64, because one MIP instance's solve time depends
    on the instance far more than on the code: the median over many
    instances is what a planner change moves.
``fleet-year`` / ``fleet-battery``
    ``simulate(list[FleetSite])`` on a fleet of sparse batch campaigns:
    a site-year per site open loop, and a quarter per site closed loop
    behind a battery and a priced grid.
``twin-session``
    One closed-loop client driving the ``repro.serve`` ASGI app
    in-process: tick/status, checkpoint → restore, fork with injected
    shocks, results, on a session restored from a fresh one's
    checkpoint.

A workload object owns its output checks: :meth:`Workload.expect`
counts every check (and, for ``twin-session``, every request) as an
attempted operation and records the ones that fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import time
from collections import defaultdict
from datetime import timedelta
from itertools import count
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.cluster import Datacenter, DatacenterConfig
from repro.errors import SchedulingError
from repro.experiments import (
    ArtifactCache,
    ComputeSpec,
    PolicySpec,
    Runner,
    Scenario,
    SupplySpec,
    WorkloadSpec,
)
from repro.experiments.defaults import DEFAULT_START, TRIO_SITES, YEAR_START
from repro.experiments.runner import fleet_sites_for_scenario
from repro.serve.app import create_app
from repro.serve.testing import ASGIClient
from repro.sim import FleetSite, simulate
from repro.traces import (
    default_european_catalog,
    synthesize_catalog_traces,
    synthesize_wind,
)
from repro.units import TimeGrid, grid_days
from repro.workload import (
    VMClass,
    VMRequest,
    VMType,
    generate_vm_requests,
    workload_matched_to_power,
)

from timing import tail_percentile, timed


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """One workload: inputs, one pass, and the checks on its output.

    Attributes:
        name: Workload name (``--workload``).
        instances: Distinct inputs the passes cycle through; pass ``k``
            runs instance ``k % instances``.
        traced_instances: Instances the traced pass runs (the first
            ones).
        min_passes: Fewest timed passes, whatever ``--seconds`` says.
        site_years: Simulated or planned site-years per pass.
        site_steps: Site-steps the simulator reports wakes over in one
            traced pass.
    """

    name = ""
    instances = 1
    traced_instances = 1
    min_passes = 3
    site_years = 0.0
    site_steps = 0

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self._outcomes: dict[int, str] = {}
        self.details: dict[str, Any] = {}
        self.requests_generated = 0

    # -- checks ---------------------------------------------------------

    def expect(self, ok: bool, message: str) -> None:
        """Count one attempted operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def expect_stable(self, instance: int, outcome: Any) -> None:
        """Every pass over one instance must produce the same outcome."""
        digest = _digest(outcome)
        first = self._outcomes.setdefault(instance, digest)
        self.expect(
            digest == first,
            f"instance {instance}: outcome {digest} differs from the"
            f" first pass's {first}",
        )

    def digest(self) -> str:
        """Digest of every instance's simulated outcome."""
        return _digest(sorted(self._outcomes.items()))

    # -- the workload ---------------------------------------------------

    def setup(self) -> Any:
        raise NotImplementedError

    def discard(self, inputs: Any) -> None:
        """Release inputs built by a setup repeat that will not be used."""

    def traced_setup(self) -> Any:
        return self.setup()

    def prepare(self, inputs: Any) -> Any:
        """Untimed per-pass preparation; its result is the pass input."""
        return inputs

    def run_pass(self, inputs: Any, index: int) -> Any:
        raise NotImplementedError

    def check(self, inputs: Any, index: int, output: Any) -> None:
        raise NotImplementedError

    def finish(self, inputs: Any) -> None:
        """Checks made once per run, outside the timed region."""

    def extra_metrics(self, inputs: Any, pass_s: float) -> dict[str, float]:
        """Untimed-pass measurements behind some per-layer metrics.

        Args:
            pass_s: The untraced median time of one pass.
        """
        return {}


# ----------------------------------------------------------------------
# plan-week
# ----------------------------------------------------------------------

#: HiGHS's default relative gap for the monolithic MIP solve.
MIP_REL_GAP = 1e-3

_POLICIES = (
    PolicySpec("Greedy", "greedy"),
    PolicySpec("MIP-24h", "rolling_mip", window_steps=24),
    PolicySpec("MIP", "mip"),
    PolicySpec("MIP-w24", "mip", decompose="window:24"),
)


def planned_gb(problem, placement) -> float:
    """A plan's O1 term: total planned migration, in GB.

    The MIP charges ``|u[s,t] - u[s,t-1]| * bytes_per_core`` for every
    change of a site's displaced stable cores, starting from zero.
    """
    total = 0.0
    for series in placement.planned_displacement.values():
        u = np.asarray(series, dtype=float)
        total += float(np.abs(np.diff(u, prepend=0.0)).sum())
    return total * problem.bytes_per_core / 1e9


class PlanWeek(Workload):
    """Table-1 scenarios through ``Runner.run`` on cold caches."""

    name = "plan-week"
    traced_instances = 3

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        super().__init__(seed, tiny, work_dir)
        self.instances = 3 if tiny else 64
        self.min_passes = self.instances
        apps = 20 if tiny else 100
        self.scenarios = [
            self._scenario(i, apps) for i in range(self.instances)
        ]
        grid = self.scenarios[0].grid
        self.site_years = (
            len(TRIO_SITES) * grid.n * grid.step_hours / (365 * 24)
        )
        self._dirs = count()
        self.plans: dict[int, dict[str, float]] = {}
        self.cache_bytes: dict[int, int] = {}
        self.vms: dict[int, int] = {}

    def _scenario(self, i: int, apps: int) -> Scenario:
        base = 1000 * self.seed + 10 * i
        return Scenario(
            name=f"plan-week-{i}",
            sites=TRIO_SITES,
            grid=TimeGrid(DEFAULT_START, timedelta(hours=1), 7 * 24),
            workload=WorkloadSpec(
                count=apps, mean_vm_count=40, mean_duration_days=2.5
            ),
            policies=_POLICIES,
            compute=ComputeSpec(cores_per_site=28_000),
            seed=base,
            trace_seed=base,
            workload_seed=base + 1,
            forecast_seed=base + 2,
        )

    def setup(self):
        traces = []
        for scenario in self.scenarios:
            with obs.span("bench.traces.synthesize", scenario=scenario.name):
                traces.append(synthesize_catalog_traces(
                    scenario.catalog(), scenario.grid,
                    seed=scenario.effective_trace_seed,
                ))
        return traces

    def _run(self, i: int, traces, cache_dir: Path, jobs: int = 1):
        with obs.span("bench.experiments.run", scenario=f"plan-week-{i}"):
            return Runner(
                self.scenarios[i],
                cache=ArtifactCache(cache_dir),
                jobs=jobs,
                traces=traces[i],
                traces_from_cache=False,
            ).run()

    def run_pass(self, traces, index):
        i = index % self.instances
        cache_dir = self.work_dir / f"cache-{next(self._dirs)}"
        return i, cache_dir, self._run(i, traces, cache_dir)

    def check(self, traces, index, output):
        i, cache_dir, result = output
        self.cache_bytes[i] = _dir_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        problem = result.problem
        for label, placement in result.placements.items():
            try:
                placement.validate_complete(problem)
                error = ""
            except SchedulingError as exc:
                error = str(exc)
            self.expect(not error, f"instance {i} {label}: {error}")
        plan = {
            "mip_planned_gb": planned_gb(problem, result.placements["MIP"]),
            "window24_planned_gb": planned_gb(
                problem, result.placements["MIP-w24"]
            ),
            "mip_gb": result.executions["MIP"].total_transfer_gb(),
            "window24_gb": result.executions["MIP-w24"].total_transfer_gb(),
        }
        # The windowed plan is feasible for the monolithic model, so
        # the monolithic solve (within its gap) can never plan more.
        self.expect(
            plan["mip_planned_gb"]
            <= plan["window24_planned_gb"] * (1 + MIP_REL_GAP) + 1e-9,
            f"instance {i}: monolithic MIP planned"
            f" {plan['mip_planned_gb']:.3f} GB >"
            f" window:24 {plan['window24_planned_gb']:.3f} GB",
        )
        outcome = dict(plan)
        outcome.update({
            label: execution.total_transfer_gb()
            for label, execution in result.executions.items()
        })
        self.expect_stable(i, outcome)
        self.plans[i] = plan
        self.vms[i] = sum(app.vm_count for app in problem.apps)

    def finish(self, traces):
        totals = {
            key: sum(plan[key] for plan in self.plans.values())
            for key in next(iter(self.plans.values()))
        }
        # Quality comparisons between the two planners divide by these.
        self.expect(
            totals["mip_planned_gb"] > 0 and totals["window24_planned_gb"] > 0,
            f"zero planned migration over the round: {totals}",
        )
        self.details.update(totals)
        self.requests_generated = sum(self.vms.values())

    def extra_metrics(self, traces, pass_s):
        """Warm-cache reruns and the 2-thread policy fan-out."""
        n = min(2, self.instances)
        warm, cold, fanned = [], 0.0, 0.0
        for i in range(n):
            for jobs in (1, 2):
                cache_dir = self.work_dir / f"extra-{next(self._dirs)}"
                start = time.perf_counter()
                self._run(i, traces, cache_dir, jobs=jobs)
                elapsed = time.perf_counter() - start
                if jobs == 1:
                    cold += elapsed
                    start = time.perf_counter()
                    self._run(i, traces, cache_dir)
                    warm.append(time.perf_counter() - start)
                else:
                    fanned += elapsed
                shutil.rmtree(cache_dir, ignore_errors=True)
        return {
            "experiments.cache.bytes_written": float(
                sum(self.cache_bytes.values())
            ),
            "experiments.cache.warm_rerun_s": statistics.median(warm),
            "experiments.parallel.jobs2_speedup": cold / fanned,
            "sched.migration_gb.mip": self.details["mip_gb"],
            "sched.migration_gb.window24": self.details["window24_gb"],
            "sched.planned_gb.mip": self.details["mip_planned_gb"],
            "sched.planned_gb.window24": self.details["window24_planned_gb"],
        }


# ----------------------------------------------------------------------
# fleet-year / fleet-battery
# ----------------------------------------------------------------------

_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def campaign_requests(
    rng: np.random.Generator, days: int, vms_per_campaign: int
) -> list[VMRequest]:
    """Three sparse batch campaigns over the horizon.

    Campaign ``c`` starts on a random day in the first half of the
    ``c``-th third of the horizon; its VMs arrive within half a day and
    live one to three days, half of them stable.  Most of a site-year
    is therefore idle, which is the regime skip-ahead engines target.
    """
    span = days // 3
    requests = []
    for campaign in range(3):
        day = int(rng.integers(campaign * span, campaign * span + span // 2))
        for _ in range(vms_per_campaign):
            requests.append(VMRequest(
                len(requests),
                day * 96 + int(rng.integers(0, 48)),
                int(rng.integers(96, 3 * 96)),
                _VM_TYPES[rng.integers(0, len(_VM_TYPES))],
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE,
            ))
    return requests


class FleetYear(Workload):
    """``simulate()`` on an open-loop site-year fleet."""

    name = "fleet-year"
    supply_spec: SupplySpec | None = None
    seed_offset = 0

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        super().__init__(seed, tiny, work_dir)
        self.n_sites, self.days = self.size(tiny)
        self.vms_per_campaign = 40 if tiny else 400
        self.site_years = self.n_sites * self.days / 365
        self.site_steps = self.n_sites * self.days * 96
        self.summaries: dict[str, dict] = {}
        picks = np.random.default_rng(seed).choice(
            self.n_sites, size=min(4, self.n_sites), replace=False
        )
        self.sampled = sorted(f"site{i}" for i in picks)

    @staticmethod
    def size(tiny: bool) -> tuple[int, int]:
        return (4, 30) if tiny else (100, 365)

    def setup(self):
        grid = grid_days(YEAR_START, self.days)
        config = DatacenterConfig()
        sites = []
        for i in range(self.n_sites):
            site_seed = 1000 * self.seed + self.seed_offset + i
            with obs.span("bench.traces.synthesize"):
                trace = synthesize_wind(grid, seed=site_seed, name=f"site{i}")
            with obs.span("bench.workload.campaigns"):
                requests = campaign_requests(
                    np.random.default_rng(site_seed), self.days,
                    self.vms_per_campaign,
                )
            supply = None
            if self.supply_spec is not None:
                with obs.span("bench.supply.build"):
                    supply = self.supply_spec.build(trace)
            sites.append(FleetSite(
                name=f"site{i}",
                config=config,
                trace=trace,
                requests=requests,
                supply=supply,
                supply_mode="open" if supply is None else "closed",
            ))
        self.requests_generated = sum(len(s.requests) for s in sites)
        return sites

    def run_pass(self, sites, index):
        with obs.span("bench.sim.simulate", n_sites=len(sites)):
            return simulate(sites)

    def check(self, sites, index, results):
        self.expect(
            sorted(results) == sorted(s.name for s in sites),
            f"fleet returned {len(results)} of {len(sites)} sites",
        )
        summaries = {name: r.summary_dict() for name, r in results.items()}
        self.expect_stable(0, summaries)
        self.summaries = {name: summaries[name] for name in self.sampled}

    def finish(self, sites):
        """Re-run sampled sites on the dense reference engine."""
        by_name = {site.name: site for site in sites}
        for name in self.sampled:
            site = by_name[name]
            dense = simulate(
                Datacenter(
                    site.config, site.trace,
                    supply=site.supply, supply_mode=site.supply_mode,
                ),
                site.requests,
                engine="dense",
            )
            self.expect(
                dense.summary_dict() == self.summaries[name],
                f"{name}: fleet summary differs from the dense engine",
            )


class FleetBattery(FleetYear):
    """The fleet generator, closed loop behind a battery and a priced grid."""

    name = "fleet-battery"
    seed_offset = 500
    supply_spec = SupplySpec(
        battery_mwh=200.0,
        grid_budget_mwh=500.0,
        price_trace="double_peak",
        carbon_trace="daily",
        grid_policy="threshold",
        price_threshold=60.0,
        mode="closed",
    )

    @staticmethod
    def size(tiny: bool) -> tuple[int, int]:
        # 16 sites is the fleet engine's smallest batched closed group.
        # A quarter keeps a pass near 1.6 s, so a time box holds enough
        # passes for a steady median.
        return (16, 60) if tiny else (32, 91)

    def extra_metrics(self, sites, pass_s):
        """The same sites run open loop: the closed loop's extra cost."""
        open_sites = [
            dataclasses.replace(site, supply=None, supply_mode="open")
            for site in sites
        ]
        open_loop = timed(lambda: simulate(open_sites), repeats=3).median
        closed_loop_s = pass_s - open_loop
        return {
            "supply.closed_loop_s": closed_loop_s,
            "supply.closed_loop_share": closed_loop_s / pass_s,
        }


# ----------------------------------------------------------------------
# twin-session
# ----------------------------------------------------------------------

#: The Table-1 trio, three more wind sites and two southern solar sites.
_TWIN_SITES = TRIO_SITES + ("DK-wind", "DE-wind", "IE-wind", "ES-solar",
                            "GR-solar")

#: VM demand of the twin's fleet, in site capacities.  Requests are
#: sized to each site's mean generation, so a windy seed would bring
#: more VMs (and more work per tick) than a calm one; the utilization
#: is scaled per seed so every seed asks for this much in total.
_TWIN_DEMAND = 0.7

_TWIN_SUPPLY = SupplySpec(
    battery_mwh=20.0,
    battery_power_mw=5.0,
    grid_budget_mwh=50.0,
    price_trace="double_peak",
    carbon_trace="daily",
    grid_policy="threshold",
    price_threshold=60.0,
    mode="closed",
)


class TwinSession(Workload):
    """One closed-loop client through the digital-twin HTTP API."""

    name = "twin-session"
    ticks_per_request = 24

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        super().__init__(seed, tiny, work_dir)
        sites = _TWIN_SITES[:2] if tiny else _TWIN_SITES
        days = 2 if tiny else 4
        self.checkpoint_every = 3 if tiny else 4
        grid = TimeGrid(DEFAULT_START, timedelta(minutes=15), days * 96)
        traces = synthesize_catalog_traces(
            default_european_catalog().subset(sites), grid, seed=seed
        )
        powered = sum(float(trace.values.mean()) for trace in traces.values())
        self.scenario = Scenario(
            name="twin-session",
            sites=sites,
            grid=grid,
            workload=WorkloadSpec(
                kind="vm_requests",
                utilization=min(1.0, _TWIN_DEMAND / powered),
            ),
            supply=_TWIN_SUPPLY,
            seed=seed,
        )
        self.ticks = days * 96 // self.ticks_per_request
        # The fork advances the second half of the horizon again.
        self.site_years = len(sites) * days * 1.5 / 365
        # Both sessions report wakes over their whole grid.
        self.site_steps = 2 * len(sites) * days * 96
        self.client = ASGIClient(create_app())
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.status_bytes: list[int] = []
        self.checkpoint_bytes = 0
        self._batch: dict | None = None
        self._fresh: tuple[str, bytes] | None = None

    def _request(self, kind: str, method: str, path: str, **kwargs):
        start = time.perf_counter()
        with obs.span(f"bench.serve.{kind}"):
            response = self.client.request(method, path, **kwargs)
        if not obs.enabled():
            self.latency[kind].append(time.perf_counter() - start)
        self.expect(
            200 <= response.status < 300,
            f"{method} {path} -> {response.status} {response.body[:200]!r}",
        )
        return response

    def setup(self) -> str:
        response = self._request(
            "create", "POST", "/sessions",
            json={"scenario": self.scenario.to_dict(), "engine": "soa"},
        )
        return response.json()["session_id"]

    def discard(self, session_id: str) -> None:
        self._request("delete", "DELETE", f"/sessions/{session_id}")

    def prepare(self, session_id: str) -> str:
        """A fresh copy of the created session, restored from a checkpoint.

        A pass advances its session to the end, so every pass starts
        from a restore of the created session's checkpoint instead of a
        new ``POST /sessions``: passes then cost only the traffic they
        time, and ``setup_s`` is measured on its own repeats.
        """
        if self._fresh is None or self._fresh[0] != session_id:
            blob = self._request(
                "checkpoint", "GET", f"/sessions/{session_id}/checkpoint"
            ).body
            self._fresh = (session_id, blob)
        return self._request(
            "restore", "POST", "/sessions/restore", data=self._fresh[1]
        ).json()["session_id"]

    def traced_setup(self) -> str:
        """Create, preceded by the work it does, one layer at a time.

        ``POST /sessions`` synthesizes the scenario's traces and
        generates its requests inside one request; calling those layers
        directly on the same inputs first attributes their cost.
        """
        scenario = self.scenario
        with obs.span("bench.traces.synthesize"):
            traces = synthesize_catalog_traces(
                scenario.catalog(), scenario.grid,
                seed=scenario.effective_trace_seed,
            )
        cores = DatacenterConfig().cluster.total_cores
        utilization = scenario.workload.utilization
        with obs.span("bench.workload.generate"):
            self.requests_generated = sum(
                len(generate_vm_requests(
                    scenario.grid,
                    workload_matched_to_power(
                        float(traces[name].values.mean()), cores,
                        utilization=utilization,
                    ),
                    seed=scenario.effective_workload_seed + index,
                ))
                for index, name in enumerate(scenario.sites)
            )
        return self.setup()

    def run_pass(self, session_id, index):
        main, fork, blob = session_id, None, b""
        tick = f"/tick?n={self.ticks_per_request}"
        for k in range(1, self.ticks + 1):
            self._request("tick", "POST", f"/sessions/{main}{tick}")
            status = self._request("status", "GET", f"/sessions/{main}/status")
            self.status_bytes.append(len(status.body))
            if fork is not None:
                self._request("tick", "POST", f"/sessions/{fork}{tick}")
            if k % self.checkpoint_every == 0:
                blob = self._request(
                    "checkpoint", "GET", f"/sessions/{main}/checkpoint"
                ).body
                restored = self._request(
                    "restore", "POST", "/sessions/restore", data=blob
                ).json()["session_id"]
                self._request("delete", "DELETE", f"/sessions/{main}")
                main = restored
            if k == self.ticks // 2:
                fork = self._request(
                    "fork", "POST", f"/sessions/{main}/fork", json={}
                ).json()["session_id"]
                for shock in (
                    {"kind": "spot_price", "scale": 3.0},
                    {"kind": "blackout"},
                ):
                    self._request(
                        "inject", "POST", f"/sessions/{fork}/inject",
                        json=shock,
                    )
        results = [
            self._request(
                "results", "GET", f"/sessions/{sid}/results"
            ).json()["results"]
            for sid in (main, fork)
        ]
        for sid in (main, fork):
            self._request("delete", "DELETE", f"/sessions/{sid}")
        self.checkpoint_bytes = len(blob)
        return results

    def batch_results(self) -> dict:
        """The same scenario as one batch fleet run, JSON-normalized."""
        if self._batch is None:
            batch = simulate(fleet_sites_for_scenario(self.scenario))
            self._batch = json.loads(json.dumps(
                {name: r.summary_dict() for name, r in batch.items()}
            ))
        return self._batch

    def check(self, session_id, index, output):
        main, fork = output
        self.expect(
            main == self.batch_results(),
            "session results differ from the batch fleet run",
        )
        self.expect(main != fork, "the shocked fork matches the main session")
        self.expect_stable(0, output)

    def extra_metrics(self, session_id, pass_s):
        metrics = {
            f"serve.{kind}_ms_p50": 1e3 * statistics.median(samples)
            for kind, samples in self.latency.items()
        }
        p, value = tail_percentile(self.latency["tick"])
        metrics["serve.tick_ms_tail"] = 1e3 * value
        metrics["serve.status_bytes"] = float(
            statistics.median(self.status_bytes)
        )
        metrics["serve.checkpoint_mb"] = self.checkpoint_bytes / 1e6
        self.details["tick_tail_percentile"] = p
        self.details["tick_samples"] = len(self.latency["tick"])
        return metrics


WORKLOADS = {
    w.name: w for w in (PlanWeek, FleetYear, FleetBattery, TwinSession)
}
