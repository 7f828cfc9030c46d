"""Timing primitives shared by every workload of the end-to-end benchmark.

:func:`timed` runs a callable for a fixed number of passes (or for at
least a number of seconds), after untimed warm-up passes, and returns
every sample together with its median and quartiles.  There is no
absolute noise floor: a pass that takes 10 ms is reported as 10 ms, and
a comparison's slack comes from the measured spread.

Every sample is *speed-normalized*.  The benchmark runs on shared
virtual machines whose speed moves by 10–100% over seconds to minutes
as neighbours come and go, which no number of repeats averages out.  So
each pass is bracketed by two runs of a fixed :func:`reference_kernel`
that does not touch the program, and its wall time is scaled by
``REFERENCE_S / (mean of the two reference times)``: the time the pass
would have taken on a machine where the kernel takes ``REFERENCE_S``.
A change to the program moves the pass and not the kernel, so it shows
in full; contention slows both, and most of it cancels.  The raw wall times are
kept next to the normalized ones.

Quartiles follow :func:`statistics.quantiles` with its default
(exclusive) method, so a spread computed here matches one computed from
the same values anywhere else.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

#: A latency percentile is reported only when at least this many pooled
#: samples lie above it; below that the tail is one or two outliers.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first; the median is the fallback.
TAIL_CANDIDATES = (99, 90)

#: About the time :func:`reference_kernel` takes on an uncontended core
#: of the 2-vCPU machine the baseline was measured on (Xeon at 2.1 GHz,
#: Python 3.11, numpy 2.4).  Normalized times read as seconds there.
REFERENCE_S = 0.015

_REFERENCE_RNG = np.random.default_rng(12345)
_REFERENCE_VECTOR = _REFERENCE_RNG.random(64)
_REFERENCE_ARRAY = _REFERENCE_RNG.random(500_000)


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float):
        self.key = key
        self.weight = weight


def reference_kernel() -> float:
    """Fixed work shaped like the program's: loops, objects, arrays.

    Integer arithmetic in a loop, attribute access and dict updates on
    small objects, a keyed sort, many small numpy operations, and a few
    passes over a 4 MB array — the mix the simulator, the supply
    dispatch and the planner's model assembly spend their time in.
    Contention on this machine slows interpreter-bound and memory-bound
    code by different factors, and the mix tracked all four workloads
    better than any one part of it.  It shares no code with the
    program, so no change to the program changes its time.
    """
    total = 0
    for i in range(50_000):
        total += i * i % 7
    items = [_Item(i, i * 0.5) for i in range(8_000)]
    buckets: dict[int, float] = {}
    for item in items:
        buckets[item.key % 1013] = buckets.get(item.key % 1013, 0.0) + item.weight
    items.sort(key=lambda item: -item.weight)
    vector = _REFERENCE_VECTOR
    for _ in range(1_000):
        vector = np.minimum(vector * 1.0001, 2.0)
    array = _REFERENCE_ARRAY
    for _ in range(3):
        array = np.cumsum(array[::-1]) / array.size
    return total + len(buckets) + float(vector[0]) + float(array[-1])


def reference_time() -> float:
    """Wall time of one :func:`reference_kernel` run, in seconds.

    The garbage collector is off while the kernel runs: its allocations
    would otherwise trigger collections that walk whatever the workload
    keeps alive, and the kernel's time would grow with the workload's
    heap instead of tracking the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


@dataclass(frozen=True)
class Timing:
    """Speed-normalized samples with their median and quartiles.

    ``raw`` holds the measured wall times the samples were scaled from,
    in the same order.
    """

    samples: list[float]
    raw: list[float]
    q1: float
    median: float
    q3: float

    @classmethod
    def of(cls, samples: Sequence[float], raw: Sequence[float]) -> "Timing":
        q1, median, q3 = quartiles(samples)
        return cls(list(samples), list(raw), q1, median, q3)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran."""
        return statistics.median(self.raw) / self.median if self.median else 1.0


def timed(
    fn: Callable[[], Any],
    repeats: int | None = None,
    warmup: int = 1,
    *,
    seconds: float | None = None,
    before: Callable[[], None] | None = None,
    on_result: Callable[[Any], None] | None = None,
) -> Timing:
    """Time ``fn()`` over repeated passes, speed-normalized.

    Args:
        fn: One pass.  Its return value is handed to ``on_result``
            outside the timed region and dropped before the next pass.
        repeats: Timed passes to run.  With ``seconds`` it is the
            minimum; without it, exactly this many (default 1).
        warmup: Untimed passes before the first timed one.
        seconds: Keep starting passes until this much wall time has
            passed since the first timed one (and ``repeats`` are done).
        before: Untimed preparation run before every pass.
        on_result: Output check, called with each pass's result
            (warm-up passes included).

    ``gc.collect()`` runs before every pass so one pass's garbage is
    not collected on the next one's clock.  The reference kernel runs
    right after every pass; a pass is normalized by the mean of that
    run and the one after the previous pass (or before the first).
    """
    minimum = 1 if repeats is None else repeats
    samples: list[float] = []
    raw: list[float] = []
    refs = [reference_time()]

    def one() -> None:
        if before is not None:
            before()
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        refs.append(reference_time())
        if on_result is not None:
            on_result(result)
        raw.append(elapsed)
        samples.append(elapsed * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))

    for _ in range(warmup):
        one()
    del samples[:], raw[:]
    began = time.perf_counter()
    while len(samples) < minimum or (
        seconds is not None and time.perf_counter() - began < seconds
    ):
        one()
    return Timing.of(samples, raw)


def tail_percentile(samples: Sequence[float]) -> tuple[int, float]:
    """The highest of :data:`TAIL_CANDIDATES` with enough samples beyond it.

    A percentile ``p`` qualifies when at least :data:`MIN_BEYOND`
    samples lie strictly above its (linearly interpolated) value.  The
    median is the fallback whatever the sample count.

    Returns:
        ``(percentile, value)``.
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    for p in TAIL_CANDIDATES:
        value = float(np.percentile(values, p))
        if int((values > value).sum()) >= MIN_BEYOND:
            return p, value
    return 50, float(np.median(values))
