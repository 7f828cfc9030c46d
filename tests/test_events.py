"""Tests for the columnar event log (repro.cluster.events).

Every query helper is checked against a list-of-tuples reference model
kept here, the row layout the log used before it went columnar, on
random event streams and across a pickle round trip (sessions
checkpoint their logs by pickling them).
"""

from __future__ import annotations

import gc
import pickle

from hypothesis import given, settings, strategies as st

from repro.cluster import Event, EventKind, EventLog

Row = tuple[int, EventKind, int, float]


class ReferenceLog:
    """One row tuple per event, queried by scanning the rows."""

    def __init__(self) -> None:
        self.rows: list[Row] = []

    def record(self, step, kind, vm_id, bytes_moved=0.0) -> None:
        self.rows.append((step, kind, vm_id, bytes_moved))

    def events(self) -> list[Event]:
        return [Event(*r) for r in self.rows]

    def of_kind(self, kind) -> list[Event]:
        return [Event(*r) for r in self.rows if r[1] is kind]

    def count(self, kind) -> int:
        return sum(1 for r in self.rows if r[1] is kind)

    def bytes_of_kind(self, kind) -> float:
        return sum(r[3] for r in self.rows if r[1] is kind)

    def for_vm(self, vm_id) -> list[Event]:
        return [Event(*r) for r in self.rows if r[2] == vm_id]


events = st.lists(
    st.tuples(
        # Steps past 256 are not interned small ints.
        st.integers(min_value=0, max_value=40_000),
        st.sampled_from(list(EventKind)),
        st.integers(min_value=0, max_value=12),
        # None: record() called without bytes_moved.
        st.one_of(
            st.none(),
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e13, allow_nan=False),
            st.integers(min_value=0, max_value=2**40),
        ),
    ),
    max_size=80,
)


def record(targets, stream) -> None:
    for step, kind, vm_id, moved in stream:
        for target in targets:
            if moved is None:
                target.record(step, kind, vm_id)
            else:
                target.record(step, kind, vm_id, moved)


def fill(stream) -> tuple[EventLog, ReferenceLog]:
    log, reference = EventLog(), ReferenceLog()
    record((log, reference), stream)
    return log, reference


def assert_matches(log: EventLog, reference: ReferenceLog) -> None:
    assert len(log) == len(reference.rows)
    assert list(log) == reference.events()
    for kind in EventKind:
        assert log.of_kind(kind) == reference.of_kind(kind)
        assert log.count(kind) == reference.count(kind)
        # Same terms summed in the same order: equal to the last bit.
        got, want = log.bytes_of_kind(kind), reference.bytes_of_kind(kind)
        assert got == want and type(got) is type(want)
    for vm_id in range(14):
        assert log.for_vm(vm_id) == reference.for_vm(vm_id)


class TestEventLog:
    @given(events)
    @settings(max_examples=150, deadline=None)
    def test_queries_match_row_model(self, stream):
        log, reference = fill(stream)
        assert_matches(log, reference)

    @given(events, events)
    @settings(max_examples=60, deadline=None)
    def test_pickle_round_trip_keeps_recording(self, head, tail):
        log, reference = fill(head)
        restored = pickle.loads(
            pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert_matches(restored, reference)
        # A restored log appends where the original stopped.
        record((restored, reference), tail)
        assert_matches(restored, reference)

    def test_recording_allocates_no_tracked_objects(self):
        """Appends create nothing the cyclic collector tracks, so a
        long-lived log never pushes it into a full collection."""
        log = EventLog()
        append, evict = log.record, EventKind.EVICT
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for i in range(10_000):
                append(1_000 + i, evict, 50_000 + i, 1.5 * i)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert len(log) == 10_000
        assert grown <= 8, grown
