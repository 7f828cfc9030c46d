"""Command-line interface: run the paper's experiments from a shell.

Subcommands::

    python -m repro synthesize --sites NO-solar UK-wind --days 30 --out traces/
    python -m repro variability --sites NO-solar UK-wind PT-wind --days 30
    python -m repro simulate --kind wind --days 14
    python -m repro forecast --kind wind --days 60
    python -m repro schedule --days 7 --apps 150 --jobs 3
    python -m repro sweep --mode simulate --sites BE-wind BE-solar \
        --days 7 14 --seeds 0 1 2 --jobs 4
    python -m repro report trace.jsonl

The pipeline commands accept ``--trace-out PATH`` (equivalent to
``$REPRO_TRACE=PATH``) to capture a JSON-lines span/metric trace of the
run — synthesis, forecast, MIP assembly vs solve, per-site simulation —
which ``repro report`` renders as a span tree with the slowest spans
and metric totals.

Every command is deterministic for a given ``--seed`` and prints the
same style of report the benchmark harness writes.  ``simulate`` /
``schedule`` accept ``--jobs`` to fan their per-site / per-policy
stages across threads; ``sweep`` expands a parameter grid into
scenarios and fans them across processes (``--jobs``, ``--backend``,
``$REPRO_JOBS``), printing a fleet summary with per-task timings and
the measured speedup.

The pipeline commands (``simulate``, ``schedule``) build a declarative
:class:`~repro.experiments.Scenario` and execute it through
:class:`~repro.experiments.Runner`: expensive intermediates (trace
synthesis, forecast series, MIP solves) are cached content-addressed
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), so a repeated
invocation with unchanged parameters reuses them, and each run writes a
``RunManifest`` JSON (per-stage wall times, cache hits, seeds, artifact
hashes) under ``<cache-dir>/manifests``.  Use ``--no-cache`` to bypass
the cache, ``--cache-dir`` / ``--manifest-dir`` to relocate it.

``simulate`` / ``schedule`` / ``sweep`` also accept ``--battery-mwh``,
``--battery-power-mw`` and ``--grid-budget-mwh``, composing a
:mod:`repro.supply` stack (physical battery and/or bounded grid
top-up, §2.3) behind every site's trace; ``simulate`` then reports the
stack's energy accounting next to the migration metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from . import obs
from .analysis import format_table
from .errors import SolverError
from .experiments import (
    ArtifactCache,
    ComputeSpec,
    PolicySpec,
    Runner,
    Scenario,
    SupplySpec,
    WorkloadSpec,
    cached_catalog_traces,
    default_cache_dir,
    resolve_jobs,
    run_scenarios,
)
from .experiments.defaults import DEFAULT_START, TRIO_SITES
from .forecast import NoisyOracleForecaster, horizon_mape_profile
from .multisite import stable_energy_split
from .sched import DecomposeSpec
from .supply import GRID_POLICIES
from .supply.spec import CARBON_TRACES, PRICE_TRACES
from .traces import (
    default_european_catalog,
    synthesize_solar,
    synthesize_wind,
    trace_to_csv,
)
from .units import TimeGrid, grid_days


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed"
    )
    parser.add_argument(
        "--days", type=float, default=7.0, help="simulation span in days"
    )


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk artifact cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache root (default: $REPRO_CACHE_DIR or"
        " ~/.cache/repro)",
    )
    parser.add_argument(
        "--manifest-dir", default=None,
        help="where to write the run manifest JSON"
        " (default: <cache-dir>/manifests)",
    )


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for parallel stages (default: $REPRO_JOBS,"
        " else serial)",
    )


def _decompose_spec(text: str) -> str:
    """``--decompose`` type: validate the spec, keep the text as given
    (it enters scenario hashes verbatim)."""
    try:
        DecomposeSpec.parse(text)
    except SolverError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _add_supply_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "supply stack",
        "firm top-up behind the renewable trace (§2.3): a physical"
        " battery and/or a bounded grid-energy budget",
    )
    group.add_argument(
        "--battery-mwh", type=float, default=0.0, metavar="MWH",
        help="battery capacity in MWh (0 disables the battery)",
    )
    group.add_argument(
        "--battery-power-mw", type=float, default=None, metavar="MW",
        help="battery charge/discharge power limit"
        " (default: capacity over 4 hours)",
    )
    group.add_argument(
        "--grid-budget-mwh", type=float, default=0.0, metavar="MWH",
        help="total grid energy purchasable over the run"
        " (0 disables grid top-up)",
    )
    group.add_argument(
        "--price-trace", choices=PRICE_TRACES, default="none",
        help="spot-price series behind the grid component; anything"
        " but 'none' prices every imported MWh",
    )
    group.add_argument(
        "--carbon-trace", choices=CARBON_TRACES, default="none",
        help="carbon-intensity series behind the grid component"
        " ('daily' is the 140-280 gCO2/kWh cycle)",
    )
    group.add_argument(
        "--price-per-mwh", type=float, default=0.0, metavar="USD",
        help="price level for --price-trace constant",
    )
    group.add_argument(
        "--carbon-per-mwh", type=float, default=0.0, metavar="KG",
        help="carbon level for --carbon-trace constant (kgCO2/MWh)",
    )
    group.add_argument(
        "--grid-policy", choices=GRID_POLICIES, default="always",
        help="in-loop purchase policy (threshold and dvb need"
        " --price-threshold)",
    )
    group.add_argument(
        "--price-threshold", type=float, default=None, metavar="USD",
        help="price cap for the threshold policy; dvb's theta-high",
    )
    group.add_argument(
        "--carbon-weight", type=float, default=0.0, metavar="W",
        help="schedule modes: $-per-kgCO2 weight on grid imports in"
        " the MIP objective",
    )


def _supply_from_args(args: argparse.Namespace) -> SupplySpec:
    return SupplySpec(
        battery_mwh=args.battery_mwh,
        battery_power_mw=args.battery_power_mw,
        grid_budget_mwh=args.grid_budget_mwh,
        price_trace=args.price_trace,
        carbon_trace=args.carbon_trace,
        price_per_mwh=args.price_per_mwh,
        carbon_per_mwh=args.carbon_per_mwh,
        grid_policy=args.grid_policy,
        price_threshold=args.price_threshold,
    )


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSON-lines span/metric trace to PATH (same as"
        f" ${obs.TRACE_ENV}); render it with 'repro report PATH'",
    )


def _jobs_from_args(args: argparse.Namespace, fallback: int = 1) -> int:
    return resolve_jobs(args.jobs, fallback=fallback)


def _cache_from_args(args: argparse.Namespace) -> ArtifactCache | None:
    if args.no_cache:
        return None
    return ArtifactCache(args.cache_dir)


def _manifest_dir_from_args(
    args: argparse.Namespace, cache: ArtifactCache | None
) -> Path:
    if args.manifest_dir is not None:
        return Path(args.manifest_dir)
    root = cache.directory if cache is not None else default_cache_dir()
    return root / "manifests"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtual Battery (HotNets '21) experiment runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synthesize = commands.add_parser(
        "synthesize", help="generate site traces and write them as CSV"
    )
    _add_common(synthesize)
    _add_cache_options(synthesize)
    _add_jobs_option(synthesize)
    synthesize.add_argument(
        "--sites", nargs="+", required=True,
        help="catalog site names (see 'repro sites')",
    )
    synthesize.add_argument(
        "--out", required=True, help="output directory for CSV files"
    )

    commands.add_parser("sites", help="list the built-in site catalog")

    variability = commands.add_parser(
        "variability",
        help="§2.3 aggregation analysis over a site combination",
    )
    _add_common(variability)
    _add_cache_options(variability)
    variability.add_argument("--sites", nargs="+", required=True)
    variability.add_argument(
        "--window-days", type=float, default=3.0,
        help="stable-energy window",
    )

    simulate = commands.add_parser(
        "simulate", help="§3 single-site migration simulation"
    )
    _add_common(simulate)
    _add_cache_options(simulate)
    _add_jobs_option(simulate)
    _add_trace_option(simulate)
    simulate.add_argument(
        "--kind", choices=("solar", "wind"), default="wind"
    )
    simulate.add_argument(
        "--utilization", type=float, default=0.70,
        help="admission utilization cap",
    )
    _add_supply_options(simulate)

    forecast = commands.add_parser(
        "forecast", help="Figure-5 forecast MAPE by horizon"
    )
    _add_common(forecast)
    forecast.add_argument(
        "--kind", choices=("solar", "wind"), default="wind"
    )

    schedule = commands.add_parser(
        "schedule", help="Table-1 policy comparison on the Fig-3 trio"
    )
    _add_common(schedule)
    _add_cache_options(schedule)
    _add_jobs_option(schedule)
    _add_trace_option(schedule)
    schedule.add_argument("--apps", type=int, default=150)
    schedule.add_argument(
        "--cores-per-site", type=int, default=28000
    )
    schedule.add_argument(
        "--decompose", type=_decompose_spec, default=None, metavar="SPEC",
        help="decompose the MIP policies' solves, e.g."
        " 'window:24,relax-fix' (see repro.sched.DecomposeSpec)",
    )
    _add_supply_options(schedule)

    sweep = commands.add_parser(
        "sweep",
        help="expand a parameter grid into scenarios and run them"
        " in parallel",
    )
    sweep.add_argument(
        "--mode", choices=("simulate", "schedule"), default="simulate",
        help="which pipeline each scenario runs",
    )
    sweep.add_argument(
        "--sites", nargs="+", default=None,
        help="simulate: one scenario per site (default BE-wind);"
        " schedule: the site group shared by every scenario"
        " (default the Fig-3 trio)",
    )
    sweep.add_argument(
        "--days", type=float, nargs="+", default=[7.0],
        help="grid axis: simulation spans in days",
    )
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="grid axis: master seeds",
    )
    sweep.add_argument(
        "--utilization", type=float, nargs="+", default=[0.70],
        help="grid axis (simulate mode): admission utilization",
    )
    sweep.add_argument(
        "--apps", type=int, nargs="+", default=[150],
        help="grid axis (schedule mode): application counts",
    )
    sweep.add_argument(
        "--backend",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="executor backend (auto: process when jobs > 1)",
    )
    sweep.add_argument(
        "--decompose", type=_decompose_spec, default=None, metavar="SPEC",
        help="schedule mode: decompose the MIP policies' solves,"
        " e.g. 'window:24,relax-fix'",
    )
    _add_supply_options(sweep)
    _add_cache_options(sweep)
    _add_jobs_option(sweep)
    _add_trace_option(sweep)

    report = commands.add_parser(
        "report",
        help="render the span tree and metrics of a captured trace",
    )
    report.add_argument(
        "path",
        help="a --trace-out / $REPRO_TRACE JSONL file or a run"
        " manifest JSON",
    )
    report.add_argument(
        "--top", type=int, default=5,
        help="how many slowest spans to list (default 5)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the digital-twin session API (requires the 'serve'"
        " extra for uvicorn)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port"
    )

    return parser


def _cmd_sites(_args: argparse.Namespace) -> int:
    catalog = default_european_catalog()
    rows = [
        [s.name, s.kind, f"{s.latitude_deg:.2f}", f"{s.longitude_deg:.2f}",
         round(s.capacity_mw)]
        for s in catalog
    ]
    print(
        format_table(
            ["Name", "Kind", "Lat", "Lon", "MW"], rows,
            title="Built-in European site catalog",
        )
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    catalog = default_european_catalog().subset(args.sites)
    grid = grid_days(DEFAULT_START, args.days)
    traces = cached_catalog_traces(
        catalog, grid, args.seed, _cache_from_args(args)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(item):
        name, trace = item
        path = out / f"{name}.csv"
        trace_to_csv(trace, path)
        return f"wrote {path} ({len(trace)} samples)"

    jobs = _jobs_from_args(args)
    if jobs > 1 and len(traces) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(jobs, len(traces))
        ) as pool:
            lines = list(pool.map(write, traces.items()))
    else:
        lines = [write(item) for item in traces.items()]
    for line in lines:
        print(line)
    return 0


def _cmd_variability(args: argparse.Namespace) -> int:
    catalog = default_european_catalog().subset(args.sites)
    grid = grid_days(DEFAULT_START, args.days)
    traces = cached_catalog_traces(
        catalog, grid, args.seed, _cache_from_args(args)
    )
    rows = []
    for name, trace in traces.items():
        report = stable_energy_split(traces, [name], args.window_days)
        rows.append(
            [name, f"{trace.cov():.2f}",
             f"{100 * report.stable_fraction:.0f}%"]
        )
    combined = stable_energy_split(
        traces, list(traces), args.window_days
    )
    rows.append(
        ["+".join(args.sites), f"{combined.cov:.2f}",
         f"{100 * combined.stable_fraction:.0f}%"]
    )
    print(
        format_table(
            ["Combination", "cov", "Stable energy"], rows,
            title=f"Variability over {args.days:g} days"
            f" ({args.window_days:g}-day stable windows)",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    site = "BE-solar" if args.kind == "solar" else "BE-wind"
    scenario = Scenario(
        name=f"cli-simulate-{args.kind}",
        sites=(site,),
        grid=grid_days(DEFAULT_START, args.days),
        workload=WorkloadSpec(
            kind="vm_requests", utilization=args.utilization
        ),
        supply=_supply_from_args(args),
        seed=args.seed,
    )
    cache = _cache_from_args(args)
    result = Runner(
        scenario,
        cache=cache,
        use_cache=cache is not None,
        manifest_dir=_manifest_dir_from_args(args, cache),
        jobs=_jobs_from_args(args),
    ).run()
    sim = result.simulations[site]
    out_gb = sim.out_gb_series()
    in_gb = sim.in_gb_series()
    arrivals = sum(record.n_arrivals for record in sim.records)
    rows = [
        ["VM arrivals", arrivals],
        ["VM evictions", int(sim.columns.n_evicted.sum())],
        ["out-migration GB", round(out_gb.sum())],
        ["in-migration GB", round(in_gb.sum())],
        ["peak step GB", round(max(out_gb.max(), in_gb.max()))],
        [
            "silent power changes",
            f"{100 * sim.power_changes_without_migration_fraction():.0f}%",
        ],
        [
            "WAN busy @200Gbps",
            f"{100 * sim.migration_active_fraction():.2f}%",
        ],
    ]
    if sim.supply is not None:
        rows.extend(
            [
                ["battery charge MWh",
                 f"{sim.supply.charge_total_mwh:.2f}"],
                ["battery discharge MWh",
                 f"{sim.supply.discharge_total_mwh:.2f}"],
                ["grid import MWh",
                 f"{sim.supply.grid_import_total_mwh:.2f}"],
                ["curtailed MWh",
                 f"{sim.supply.curtailed_total_mwh:.2f}"],
                ["final SoC MWh", f"{sim.supply.final_soc_mwh:.2f}"],
            ]
        )
        if sim.supply.cost_total_usd or sim.supply.carbon_total_kg:
            rows.extend(
                [
                    ["grid cost USD",
                     f"{sim.supply.cost_total_usd:.2f}"],
                    ["grid carbon kgCO2",
                     f"{sim.supply.carbon_total_kg:.2f}"],
                ]
            )
    print(
        format_table(
            ["Metric", "Value"],
            rows,
            title=f"Single-site {args.kind} simulation,"
            f" {args.days:g} days",
        )
    )
    print(f"manifest: {result.manifest_path}")
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    grid = grid_days(DEFAULT_START, args.days)
    synthesize = (
        synthesize_solar if args.kind == "solar" else synthesize_wind
    )
    trace = synthesize(grid, seed=args.seed, name="site")
    model = NoisyOracleForecaster(seed=args.seed)
    horizons = {"3h": 12, "day": 96, "week": 96 * 7}
    profile = horizon_mape_profile(model, trace, horizons, 48)
    rows = [
        [label, f"{100 * value:.1f}%" if np.isfinite(value) else "n/a"]
        for label, value in profile.items()
    ]
    print(
        format_table(
            ["Horizon", "MAPE"], rows,
            title=f"Forecast accuracy, {args.kind},"
            f" {args.days:g} days of evaluation",
        )
    )
    return 0


def _mip_policies(
    decompose: str | None, carbon_weight: float = 0.0
) -> tuple[PolicySpec, ...]:
    """The Table-1 policy trio, optionally with decomposed MIP solves."""
    return (
        PolicySpec("Greedy", "greedy"),
        PolicySpec(
            "MIP", "mip", time_limit_s=60.0, decompose=decompose,
            carbon_weight=carbon_weight,
        ),
        PolicySpec(
            "MIP-peak", "mip", peak_weight=50.0, time_limit_s=60.0,
            decompose=decompose, carbon_weight=carbon_weight,
        ),
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    scenario = Scenario(
        name="cli-schedule",
        sites=TRIO_SITES,
        grid=TimeGrid(
            DEFAULT_START, timedelta(hours=1), int(args.days * 24)
        ),
        workload=WorkloadSpec(
            count=args.apps,
            mean_vm_count=40,
            mean_duration_days=max(args.days / 3, 1.0),
        ),
        policies=_mip_policies(
            getattr(args, "decompose", None),
            getattr(args, "carbon_weight", 0.0),
        ),
        compute=ComputeSpec(cores_per_site=args.cores_per_site),
        supply=_supply_from_args(args),
        seed=args.seed,
    )
    cache = _cache_from_args(args)
    result = Runner(
        scenario,
        cache=cache,
        use_cache=cache is not None,
        manifest_dir=_manifest_dir_from_args(args, cache),
        jobs=_jobs_from_args(args),
    ).run()
    print(result.comparison.as_table())
    hits = result.manifest.cache_hits()
    if hits:
        hit_count = sum(1 for hit in hits.values() if hit)
        print(f"\ncache: {hit_count}/{len(hits)} stages reused")
    print(f"manifest: {result.manifest_path}")
    return 0


def _sweep_scenarios(args: argparse.Namespace) -> list[Scenario]:
    """Expand the sweep's parameter grid into scenarios.

    The supply flags are scalars shared by every scenario in the grid
    (a sweep compares sites/days/seeds under one supply stack).
    """
    supply = _supply_from_args(args)
    scenarios: list[Scenario] = []
    if args.mode == "simulate":
        sites = args.sites or ["BE-wind"]
        for site in sites:
            for days in args.days:
                for seed in args.seeds:
                    for utilization in args.utilization:
                        scenarios.append(
                            Scenario(
                                name=f"sweep-simulate-{site}"
                                f"-d{days:g}-s{seed}-u{utilization:g}",
                                sites=(site,),
                                grid=grid_days(DEFAULT_START, days),
                                workload=WorkloadSpec(
                                    kind="vm_requests",
                                    utilization=utilization,
                                ),
                                supply=supply,
                                seed=seed,
                            )
                        )
        return scenarios
    sites = tuple(args.sites) if args.sites else TRIO_SITES
    for days in args.days:
        for seed in args.seeds:
            for apps in args.apps:
                scenarios.append(
                    Scenario(
                        name=f"sweep-schedule-d{days:g}-s{seed}-a{apps}",
                        sites=sites,
                        grid=TimeGrid(
                            DEFAULT_START, timedelta(hours=1),
                            int(days * 24),
                        ),
                        workload=WorkloadSpec(
                            count=apps,
                            mean_vm_count=40,
                            mean_duration_days=max(days / 3, 1.0),
                        ),
                        policies=_mip_policies(
                            getattr(args, "decompose", None),
                            getattr(args, "carbon_weight", 0.0),
                        ),
                        supply=supply,
                        seed=seed,
                    )
                )
    return scenarios


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = _sweep_scenarios(args)
    cache = _cache_from_args(args)
    manifest_dir = _manifest_dir_from_args(args, cache)
    fleet_tag = hashlib.sha256(
        "".join(s.content_hash() for s in scenarios).encode()
    ).hexdigest()[:12]
    batch = run_scenarios(
        scenarios,
        jobs=_jobs_from_args(args, fallback=None),
        backend=args.backend,
        cache=cache,
        use_cache=cache is not None,
        manifest_dir=manifest_dir,
        fleet_manifest_path=manifest_dir / f"fleet_{fleet_tag}.json",
    )
    fleet = batch.fleet
    rows = [
        [task.scenario_name, f"{task.seconds:.2f}", task.worker or "-"]
        for task in fleet.tasks
    ]
    print(
        format_table(
            ["Scenario", "Seconds", "Worker"], rows,
            title=f"Sweep: {len(scenarios)} scenarios,"
            f" backend={fleet.backend}, jobs={fleet.jobs}",
        )
    )
    print(
        f"\nwall {fleet.wall_seconds:.2f}s,"
        f" serial-equivalent {fleet.task_seconds():.2f}s,"
        f" speedup {fleet.speedup():.2f}x,"
        f" cache {fleet.cache_hits}/{fleet.cache_lookups} stages reused"
    )
    print(f"fleet manifest: {batch.fleet_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(obs.render_report(obs.load_trace(args.path), top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        import uvicorn
    except ImportError:
        print(
            "repro serve needs an ASGI server; install the extra:\n"
            "  pip install 'repro[serve]'",
            file=sys.stderr,
        )
        return 1
    from .serve import create_app

    uvicorn.run(create_app(), host=args.host, port=args.port)
    return 0


_COMMANDS = {
    "sites": _cmd_sites,
    "synthesize": _cmd_synthesize,
    "variability": _cmd_variability,
    "simulate": _cmd_simulate,
    "forecast": _cmd_forecast,
    "schedule": _cmd_schedule,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    previous_trace = os.environ.get(obs.TRACE_ENV)
    if trace_out:
        # Through the environment (not a local sink) so the sweep's
        # process-pool workers inherit tracing too.
        os.environ[obs.TRACE_ENV] = trace_out
        obs.reset()
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an
        # error from the user's point of view.
        return 0
    finally:
        if trace_out:
            if previous_trace is None:
                os.environ.pop(obs.TRACE_ENV, None)
            else:
                os.environ[obs.TRACE_ENV] = previous_trace
            obs.reset()


if __name__ == "__main__":
    sys.exit(main())
