"""Plumbing shared by the micro-benchmark modules that write ``BENCH_*.json``.

``bench_fleet.py``, ``bench_perf_kernels.py``, ``bench_sim_sched.py`` and
``bench_supply.py`` each keep one file of rows at the repository root.

* :func:`bench_file` gives a module its ``record(name, **fields)`` and the
  module-scoped fixture that writes the rows once the module's tests
  ran.  The write merges: rows recorded in this run replace rows of the
  same name and every other row stays, so ``pytest -k`` on one test
  updates that test's row only.  A run that records nothing leaves the
  file untouched.  Each row carries its own ``recorded`` UTC timestamp,
  and the file's one ``machine`` block holds for every row in it: rows
  recorded on another machine are dropped, not relabelled.
* :func:`paired` and :func:`rounds` time legs with :func:`timing.timed`
  from the end-to-end benchmark: every pass is speed-normalized against
  a fixed reference kernel, and every gate compares the medians of
  those samples.  The two legs of a gate run in alternating passes of
  one time box (:func:`paired`); a single leg runs :data:`GATED_ROUNDS`
  passes or a time box, whichever lasts longer (:func:`rounds`).
  There is no absolute noise floor: a gate's slack is its threshold
  and nothing else.
* :func:`fleet_site` draws the sparse-campaign site the fleet, sim-core
  and supply benches run on.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from e2e.timing import REFERENCE_S, Timing, timed
from repro.cluster import DatacenterConfig
from repro.sim import FleetSite
from repro.traces import synthesize_wind
from repro.units import TimeGrid
from repro.workload import VMClass, VMRequest, VMType

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The fewest timed passes of a leg (a leg of a second or more runs
#: just these).
GATED_ROUNDS = 3

#: Seconds of passes per leg (a pair of legs shares twice this).
BOX_S = 3.0


def machine() -> dict:
    """What every ``BENCH_*.json`` records about the machine."""
    cpus = os.cpu_count() or 1
    block = {
        "cpus": cpus,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seconds": (
            "speed-normalized medians: wall time scaled to a machine on"
            f" which the reference kernel takes {REFERENCE_S} s"
            " (benchmarks/e2e/timing.py)"
        ),
    }
    if cpus <= 2:
        block["caveat"] = (
            "recorded on a runner with at most two CPUs; compare ratios,"
            " not seconds"
        )
    return block


class BenchFile:
    """Rows recorded by one bench module, merged into one JSON file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.rows: dict[str, dict] = {}

    def record(self, name: str, **fields) -> None:
        """Stash one row; a :class:`Timing` field becomes its median plus
        ``<field>_quartiles`` and ``<field>_passes``."""
        row: dict[str, Any] = {
            "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds")
        }
        for key, value in fields.items():
            if isinstance(value, Timing):
                row[key] = value.median
                row[f"{key}_quartiles"] = [value.q1, value.q3]
                row[f"{key}_passes"] = len(value.samples)
            else:
                row[key] = value
        self.rows[name] = row

    def write(self) -> None:
        """Merge this run's rows into the file (nothing recorded: no write).

        The stored rows are kept only if the file's ``machine`` block is
        this machine's: seconds from two machines do not compare, and
        the block would label the old rows with the new machine.
        """
        if not self.rows:
            return
        here = machine()
        benches = {}
        if self.path.exists():
            stored = json.loads(self.path.read_text())
            if stored.get("machine") == here:
                benches = stored.get("benches", {})
        benches.update(self.rows)
        payload = {"machine": here, "benches": dict(sorted(benches.items()))}
        self.path.write_text(json.dumps(payload, indent=2) + "\n")


def bench_file(name: str):
    """``(record, fixture)`` for a module writing ``REPO_ROOT / name``.

    Bind the fixture to a module-level name; it is autouse and module
    scoped, so the file is written after the module's last test.
    """
    bench = BenchFile(REPO_ROOT / name)

    @pytest.fixture(scope="module", autouse=True)
    def write_bench_file():
        yield
        bench.write()
        if bench.rows:
            print(f"\n[{len(bench.rows)} rows merged into {bench.path}]")

    return bench.record, write_bench_file


def run_timed(fn: Callable[[], Any], **kwargs) -> tuple[Any, Timing]:
    """``timed(fn, **kwargs)`` that also returns the last pass's result.

    Each pass's result is dropped before the next pass starts, so two
    results are never alive at once.
    """
    last: list = []
    timing = timed(fn, before=last.clear, on_result=last.append, **kwargs)
    return last[0], timing


def rounds(fn: Callable[[], Any]) -> tuple[Any, Timing]:
    """One leg on its own: passes for :data:`BOX_S` seconds, at least
    :data:`GATED_ROUNDS`, and no warm-up.

    A leg of a second or more runs its three passes and no warm-up
    pass it would pay for in full; a shorter one gets enough passes
    that its cold first pass does not move the median.
    """
    return run_timed(fn, repeats=GATED_ROUNDS, warmup=0, seconds=BOX_S)


def paired(
    fa: Callable[[], Any],
    fb: Callable[[], Any],
    passes: int = GATED_ROUNDS,
) -> tuple[Timing, Timing]:
    """The two legs of a gate, in alternating passes of one time box.

    One warm-up pass each, then passes in A B B A order for
    ``2 * BOX_S`` seconds (at least ``passes`` each).  Legs of a
    second or more get only ``passes`` passes in that box, so a gate
    whose margin sits inside the spread of three asks for more.  Timed
    one after the other, each leg can draw a slow spell of the machine
    that the reference kernel does not track: on a 2-core box, the
    empty supply stack against the legacy call (identical code on both
    sides) read 0.93-1.10 over eleven pairs of 3 s boxes and 0.91-1.06
    over six pairs of 10 s boxes, and 0.97-1.02 over fourteen runs of
    this.  The A B B A order hands neither leg the other's warm caches
    more often.

    No result outlives its pass: one leg's result kept alive while the
    other leg runs makes the garbage collector walk it there.  Holding
    the looped runs' event logs that way read the 64-site fleet gate
    at 0.93-1.13x instead of 1.13-1.15x.  A caller that checks the
    legs' outputs runs them again after timing.
    """
    legs = (fa, fb)
    order = itertools.cycle((0, 1, 1, 0))
    picked: list[int] = []
    timing = timed(
        lambda: legs[picked[-1]](),
        repeats=2 * passes,
        warmup=2,
        seconds=2 * BOX_S,
        before=lambda: picked.append(next(order)),
    )
    passes = list(zip(picked[2:], timing.samples, timing.raw))
    return tuple(
        Timing.of(
            [s for i, s, _ in passes if i == leg],
            [r for i, _, r in passes if i == leg],
        )
        for leg in (0, 1)
    )


_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def fleet_site(seed: int, grid: TimeGrid, config: DatacenterConfig) -> FleetSite:
    """One fleet site on a 15-minute grid: a synthetic wind trace and three
    sparse batch campaigns of 400 VMs, one per third of the horizon (at
    most 120 days apart), each VM living one to three days.

    Dense walks every step of such a site while the step kernel wakes
    only around the campaigns, so the shape is where per-run overheads
    show largest.  On a 365-day grid the campaigns start in days
    [0, 60), [120, 180) and [240, 300).
    """
    rng = np.random.default_rng(seed)
    trace = synthesize_wind(grid, seed=seed, name=f"site{seed}")
    span = min(120, grid.n // 96 // 3)
    requests = []
    for campaign in range(3):
        day = int(rng.integers(campaign * span, campaign * span + span // 2))
        for _ in range(400):
            lifetime = int(rng.integers(96, 3 * 96))
            vm_type = _VM_TYPES[rng.integers(0, len(_VM_TYPES))]
            vm_class = (
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE
            )
            arrival = day * 96 + int(rng.integers(0, 48))
            requests.append(
                VMRequest(len(requests), arrival, lifetime, vm_type, vm_class)
            )
    return FleetSite(
        name=f"site{seed}", config=config, trace=trace, requests=requests
    )
