#!/usr/bin/env python3
"""End-to-end benchmark with a per-layer breakdown.

Four workloads (see ``workloads.py``) run through the entry points users
call — ``Runner.run``, ``simulate(list[FleetSite])`` and the
``repro.serve`` ASGI app — each in its own subprocess, one after
another.  For each workload the child process:

1. builds the inputs from the seed several times (``setup_s`` is the
   median);
2. runs one untimed warm-up pass, then timed passes for ``--seconds``
   (or exactly ``--repeats``), with tracing off, checking every pass's
   outputs outside the timed region;
3. with ``--trace 1``, runs one traced setup + pass under a
   :class:`repro.obs.MemorySink` and derives the per-layer metrics from
   its spans (``layers.py``).

Every timed setup and pass is speed-normalized against a fixed
reference kernel run around it (``timing.py``), so the times read as
seconds on an uncontended machine.

Two ways to run it, from the repository root::

    # one workload: the last stdout line is the result
    python3 benchmarks/e2e/run.py --workload fleet-year --seed 0 \\
        --seconds 10 --trace 0

    # several workloads, everything, into a result file for compare.py
    python3 benchmarks/e2e/run.py --out e2e-result.json \\
        [--workloads plan-week twin-session] [--seed 0] [--repeats N] \\
        [--trace-out e2e-trace.jsonl]

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  The command exits 1 when an output check fails and 2 when it
cannot run at all (for example without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from layers import LAYERS, traced_metrics
from timing import REFERENCE_S, Timing, reference_time, timed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = BENCH_DIR / ".work"

#: The inputs are built at least SETUP_REPEATS times, and more while the
#: builds have taken under SETUP_SECONDS, so that a cheap setup is not a
#: 3-sample median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with per-layer breakdown."
    )
    parser.add_argument("--workload", help="run one workload; print its result as the last line")
    parser.add_argument("--workloads", nargs="+", help="run several")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="timed passes last at least this long (default: BENCHMARK.json"
        " run_seconds)",
    )
    parser.add_argument(
        "--repeats", type=int,
        help="exactly this many timed passes (rounds for plan-week)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="1 adds the traced pass; the result line then holds the"
        " per-layer metrics (default: 1 with --out, else 0)",
    )
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    parser.add_argument(
        "--trace-out", type=Path, help="append traced-pass records (JSONL)"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test input sizes"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload, in-process
# ----------------------------------------------------------------------


def _stats(timing: Timing) -> dict:
    return {
        "value": timing.median, "q1": timing.q1, "q3": timing.q3,
        "samples": timing.samples, "raw": timing.raw,
    }


def measure(workload, seconds, repeats, trace, trace_out=None) -> dict:
    """Run one workload's setup, timed passes, checks and traced pass."""
    from repro import obs

    instances = workload.instances
    state = {}

    def drop_inputs():
        if "inputs" in state:
            workload.discard(state.pop("inputs"))

    setup = timed(
        workload.setup, SETUP_REPEATS, warmup=0, seconds=SETUP_SECONDS,
        before=drop_inputs, on_result=lambda inputs: state.update(inputs=inputs),
    )
    counter = itertools.count()
    order: list[int] = []

    def before():
        state["pass_input"] = workload.prepare(state["inputs"])

    def one_pass():
        index = next(counter)
        order.append(index % instances)
        return index, workload.run_pass(state.pop("pass_input"), index)

    def on_result(result):
        workload.check(state["inputs"], *result)

    if repeats is not None:
        minimum, seconds = repeats * instances, None
    else:
        minimum = workload.min_passes
    passes = timed(
        one_pass, minimum, warmup=1, seconds=seconds,
        before=before, on_result=on_result,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.finish(state["inputs"])

    if instances > 1:
        # order[0] is the warm-up pass.  Every instance counts once,
        # however many times the time box let it run.
        by_instance: dict[int, list[tuple[float, float]]] = {}
        for instance, sample in zip(
            order[1:], zip(passes.samples, passes.raw)
        ):
            by_instance.setdefault(instance, []).append(sample)
        medians = [
            (statistics.median(s for s, _ in v),
             statistics.median(r for _, r in v))
            for _, v in sorted(by_instance.items())
        ]
        wall = Timing.of([s for s, _ in medians], [r for _, r in medians])
    else:
        wall = passes
    rates = Timing.of(
        [workload.site_years / s for s in wall.samples],
        [workload.site_years / r for r in wall.raw],
    )

    report = {
        "workload": workload.name,
        "instances": instances,
        "end_to_end": {
            "setup_s": _stats(setup),
            "wall_s": _stats(wall),
            "site_years_per_s": _stats(rates),
            "peak_rss_mb": _stats(Timing.of([peak_rss_mb], [peak_rss_mb])),
        },
        "passes": len(passes.samples),
        "slowdown": passes.slowdown,
    }
    if trace:
        traced = range(workload.traced_instances)
        # The untraced time of the instances the traced pass runs.
        if instances > 1:
            round_s = sum(wall.samples[k] for k in traced)
        else:
            round_s = wall.median
        extras = workload.extra_metrics(state["inputs"], wall.median)
        drop_inputs()
        state.clear()
        gc.collect()
        with obs.use(obs.MemorySink()) as sink:
            with obs.span("bench.setup"):
                inputs = workload.traced_setup()
                pass_inputs = [workload.prepare(inputs) for _ in traced]
            gc.collect()
            reference = reference_time()
            with obs.span("bench.pass") as span:
                outputs = [
                    workload.run_pass(pass_input, k)
                    for k, pass_input in zip(traced, pass_inputs)
                ]
            reference = (reference + reference_time()) / 2
        for k, output in zip(traced, outputs):
            workload.check(inputs, k, output)
        del outputs
        workload.discard(inputs)
        records = sink.records
        # Traced spans are raw wall times; the closed-loop supply split
        # was measured normalized, so it is scaled to the traced pass's
        # machine speed before it is moved between layers.
        slowdown = reference / REFERENCE_S
        per_layer, pass_layers = traced_metrics(
            records, workload.site_steps,
            supply_split_s=slowdown * max(
                extras.get("supply.closed_loop_s", 0.0), 0.0
            ),
        )
        per_layer.update(extras)
        per_layer["workload.requests"] = float(workload.requests_generated)
        per_layer["obs.overhead_pct"] = 100.0 * (
            span.wall_s / slowdown / round_s - 1.0
        )
        per_layer["bench.machine_slowdown"] = passes.slowdown
        covered = sum(pass_layers[layer] for layer in LAYERS)
        per_layer["bench.layer_coverage"] = covered / span.wall_s
        report["per_layer"] = per_layer
        report["layers"] = {
            "pass_wall_s": span.wall_s,
            "self_s": {layer: pass_layers[layer] for layer in LAYERS},
            "dominant": max(LAYERS, key=pass_layers.__getitem__),
        }
        if trace_out is not None:
            with open(trace_out, "a", encoding="utf-8") as stream:
                for record in records:
                    stream.write(json.dumps(record, default=str) + "\n")
    report["attempted"] = workload.attempted
    report["failures"] = workload.failures
    report["digest"] = workload.digest()
    report["details"] = workload.details
    return report


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work_dir = WORK_DIR / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
        report = measure(
            workload, args.seconds, args.repeats, args.trace, args.trace_out
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# Parent: orchestration and output
# ----------------------------------------------------------------------


def machine(seed: int) -> dict:
    """Where and how the result was measured."""
    import importlib.util

    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "highspy": importlib.util.find_spec("highspy") is not None,
        "git_sha": sha,
        "load_1min": os.getloadavg()[0],
        "seed": seed,
    }


def run_child(name: str, args: argparse.Namespace, trace: int) -> dict:
    """Run one workload in its own single-threaded subprocess."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Every cache the workloads open is explicit; this keeps any other
    # inside the checkout too.
    env["REPRO_CACHE_DIR"] = str(WORK_DIR / "default-cache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
        "--seconds", str(args.seconds),
    ]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out.resolve())]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name}: benchmark process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _with_units(report: dict, spec: dict) -> None:
    """Attach units from BENCHMARK.json; every listed metric must exist."""
    for section in ("end_to_end", "per_layer"):
        metrics = report.get(section)
        if metrics is None:
            continue
        unknown = set(metrics) - {e["name"] for e in spec[section]}
        if unknown:
            raise SystemExit(f"{report['workload']}: unlisted {sorted(unknown)}")
        ordered = {}
        for entry in spec[section]:
            name = entry["name"]
            if name not in metrics and section == "end_to_end":
                raise SystemExit(f"{report['workload']}: no {name}")
            # A layer the workload never enters spent no time there.
            value = metrics.get(name, 0.0)
            if not isinstance(value, dict):
                value = {"value": value}
            ordered[name] = {**value, "unit": entry["unit"]}
        report[section] = ordered


def _print_table(name: str, report: dict) -> None:
    print(f"== {name}: {report['passes']} timed passes,"
          f" {report['attempted']} checked operations,"
          f" {len(report['failures'])} failed")
    for section in ("end_to_end", "per_layer"):
        for metric, value in (report.get(section) or {}).items():
            spread = ""
            if "q1" in value:
                spread = f"  [q1 {value['q1']:.6g}, q3 {value['q3']:.6g}]"
            print(f"  {metric:<40} {value['value']:>14.6g} {value['unit']}"
                  f"{spread}")
    if "layers" in report:
        print(f"  dominant layer: {report['layers']['dominant']}")
    for failure in report["failures"][:10]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"benchmark needs the repository's src/ tree and"
            f" BENCHMARK.json under {ROOT}", file=sys.stderr,
        )
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    known = [w["name"] for w in spec["workloads"]]
    names = [args.workload] if args.workload else (args.workloads or known)
    unknown = [n for n in names if n not in known]
    if unknown or (args.workload is None and args.out is None):
        print(
            f"choose --workload NAME or --out FILE; workloads: {known}",
            file=sys.stderr,
        )
        return 2
    trace = args.trace if args.trace is not None else int(args.out is not None)
    meta = machine(args.seed)
    print("machine: " + json.dumps(meta))
    reports = {}
    for name in names:
        report = run_child(name, args, trace)
        _with_units(report, spec)
        report["failed_frac"] = len(report["failures"]) / report["attempted"]
        reports[name] = report
        _print_table(name, report)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()
    correct = all(not r["failures"] for r in reports.values())
    if args.out is not None:
        args.out.write_text(json.dumps({
            "machine": meta,
            "settings": {
                "seconds": args.seconds, "repeats": args.repeats,
                "trace": trace, "tiny": args.tiny,
            },
            "workloads": reports,
        }, indent=1) + "\n")
    if args.workload is not None:
        (report,) = reports.values()
        section = "per_layer" if trace else "end_to_end"
        print(json.dumps({
            "correct": correct,
            "attempted": report["attempted"],
            "failed": len(report["failures"]),
            "metrics": {
                name: {"value": v["value"], "unit": v["unit"]}
                for name, v in report[section].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
