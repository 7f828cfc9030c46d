"""Typed event log for the datacenter simulator.

Every admission, rejection, launch, eviction, pause, resume, and
completion is recorded with its step and traffic volume, so tests and
analyses can audit the simulator's behaviour instead of trusting
aggregate counters.

Storage is columnar: four parallel lists (step, kind, VM id, bytes
moved), and :class:`Event` objects are materialized lazily by the
query helpers.  A year-long run records ~1M events and sessions and
fleets keep their logs alive, so an append allocates nothing the
cyclic garbage collector tracks (ints, floats and the shared
:class:`EventKind` members are untracked); one tracked row tuple per
event would drive full (generation-2) collections (DESIGN.md §5l).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class EventKind(enum.Enum):
    """What happened."""

    ADMIT = "admit"              # VM placed on arrival
    REJECT = "reject"            # VM refused by admission control
    QUEUE = "queue"              # VM admitted but waiting for power
    LAUNCH = "launch"            # queued VM started (in-migration)
    EVICT = "evict"              # VM migrated out (out-migration)
    PAUSE = "pause"              # degradable VM parked in place
    RESUME = "resume"            # paused VM continued
    COMPLETE = "complete"        # VM lifetime finished


@dataclass(frozen=True)
class Event:
    """One simulator event.

    Attributes:
        step: Simulation step at which it happened.
        kind: Event type.
        vm_id: Subject VM.
        bytes_moved: Migration traffic attributed to the event (only
            LAUNCH and EVICT move bytes).
    """

    step: int
    kind: EventKind
    vm_id: int
    bytes_moved: float = 0.0


class EventLog:
    """Append-only event record with simple query helpers."""

    def __init__(self) -> None:
        # One column per Event field; Events are built on demand, so
        # the hot append path is four list pushes and no allocation
        # the collector has to track.
        self._step: list[int] = []
        self._kind: list[EventKind] = []
        self._vm_id: list[int] = []
        self._bytes: list[float] = []

    def __len__(self) -> int:
        return len(self._step)

    def __iter__(self) -> Iterator[Event]:
        return map(Event, self._step, self._kind, self._vm_id, self._bytes)

    def record(
        self, step: int, kind: EventKind, vm_id: int, bytes_moved: float = 0.0
    ) -> None:
        """Append an event."""
        self._step.append(step)
        self._kind.append(kind)
        self._vm_id.append(vm_id)
        self._bytes.append(bytes_moved)

    def _rows(self) -> Iterator[tuple[int, EventKind, int, float]]:
        return zip(self._step, self._kind, self._vm_id, self._bytes)

    def of_kind(self, kind: EventKind) -> list[Event]:
        """All events of one kind, in order."""
        return [Event(*r) for r in self._rows() if r[1] is kind]

    def count(self, kind: EventKind) -> int:
        """Number of events of one kind."""
        return sum(1 for k in self._kind if k is kind)

    def bytes_of_kind(self, kind: EventKind) -> float:
        """Total traffic attributed to events of one kind."""
        return sum(b for k, b in zip(self._kind, self._bytes) if k is kind)

    def for_vm(self, vm_id: int) -> list[Event]:
        """Every event touching one VM, in order."""
        return [Event(*r) for r in self._rows() if r[2] == vm_id]


class NullEventLog(EventLog):
    """An event log that drops appends.

    Sites constructed with ``record_events=False`` (what a direct
    ``FleetEngine(...)`` builds by default) record per-step columns
    only and send their events here.  Queries all see an empty log.
    """

    def record(
        self, step: int, kind: EventKind, vm_id: int, bytes_moved: float = 0.0
    ) -> None:
        """Drop the event."""
        return
