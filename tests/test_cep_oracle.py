"""The CEP join against the original WindowStore, row for row.

`WindowStore` below, with its `ProximityMatch`, `_Stream` and offset tables,
is the original implementation kept verbatim as the oracle. Every `ingest`
of the current store must return the same rows in the same order. The
current store has no sinks and no trace; the oracle's are left unused.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgrid import cep
from swarmgrid.cep import (
    DRONE_RETENTION_MS,
    MOBS_RETENTION_MS,
    SOBS_RETENTION_MS,
    DroneLocEvent,
    MatchKind,
    MObsEvent,
    SObsEvent,
)
from swarmgrid.world import Cell

# -- the original store, verbatim -------------------------------------------


@dataclass(frozen=True)
class ProximityMatch:
    """One join row; the subject is always the drone."""

    kind: MatchKind
    subject_id: int
    other_id: int
    subject_cell: Cell
    other_cell: Cell


def _offsets(r: int) -> tuple[Cell, ...]:
    out = []
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            for dz in range(-r, r + 1):
                if dx == 0 or dy == 0 or dz == 0:
                    out.append((dx, dy, dz))
    return tuple(out)


# Cells that can satisfy the box-plus-axis predicate: 61 for r=2, 19 for r=1.
_OFFSETS_R2 = _offsets(2)
_OFFSETS_R1 = _offsets(1)


class _Stream:
    """One event buffer with time-based eviction and a cell index."""

    def __init__(self, retention_ms: int):
        self.retention_ms = retention_ms
        self._events: deque = deque()  # (arrival_ms, event), arrival-ordered
        self._by_cell: dict[Cell, deque] = {}

    def evict(self, now_ms: int) -> None:
        ev = self._events
        while ev and now_ms - ev[0][0] > self.retention_ms:
            _, old = ev.popleft()
            bucket = self._by_cell[old.cell]
            bucket.popleft()
            if not bucket:
                del self._by_cell[old.cell]

    def append(self, event, arrival_ms: int) -> None:
        self._events.append((arrival_ms, event))
        self._by_cell.setdefault(event.cell, deque()).append((arrival_ms, event))

    def at_cell(self, cell: Cell):
        return self._by_cell.get(cell, ())

    def __len__(self) -> int:
        return len(self._events)


Sink = Callable[[ProximityMatch], None]


class WindowStore:
    """Sliding windows over the three event streams with on-arrival joins.

    Each `ingest` returns only the matches in which the arriving event
    participates, mirroring on-arrival join-row emission; the same live pair
    is not re-reported on unrelated arrivals.
    """

    def __init__(self, trace: Optional[Callable[[str], None]] = None):
        self._drones = _Stream(DRONE_RETENTION_MS)
        self._statics = _Stream(SOBS_RETENTION_MS)
        self._movings = _Stream(MOBS_RETENTION_MS)
        self._sinks: dict[int, tuple[MatchKind, Sink]] = {}
        self._next_handle = 0
        self._trace = trace

    def register_sink(self, kind: MatchKind, callback: Sink) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._sinks[handle] = (kind, callback)
        return handle

    def unregister_sink(self, handle: int) -> None:
        self._sinks.pop(handle, None)

    def ingest(self, event, now_ms: int) -> list[ProximityMatch]:
        t = getattr(event, "t", now_ms)
        if t > now_ms:
            raise ValueError("event time is ahead of ingestion time")
        for stream in (self._drones, self._statics, self._movings):
            stream.evict(now_ms)

        if isinstance(event, DroneLocEvent):
            matches = self._join_drone(event)
            self._drones.append(event, now_ms)
        elif isinstance(event, SObsEvent):
            matches = self._join_obstacle(
                event, _OFFSETS_R1, MatchKind.DRONE_STATIC
            )
            self._statics.append(event, now_ms)
        elif isinstance(event, MObsEvent):
            matches = self._join_obstacle(
                event, _OFFSETS_R2, MatchKind.DRONE_MOVING
            )
            self._movings.append(event, now_ms)
        else:
            raise TypeError(f"unknown event type: {type(event).__name__}")

        for m in matches:
            if self._trace is not None:
                self._trace(
                    f"{now_ms}\t{m.kind.value}\t{m.subject_id}\t{m.other_id}"
                    f"\t{m.subject_cell}\t{m.other_cell}"
                )
            for kind, callback in list(self._sinks.values()):
                if kind == m.kind:
                    callback(m)
        return matches

    def _join_drone(self, event: DroneLocEvent) -> list[ProximityMatch]:
        x, y, z = event.cell
        matches = []
        for dx, dy, dz in _OFFSETS_R2:
            cell = (x + dx, y + dy, z + dz)
            for _, other in self._drones.at_cell(cell):
                if other.drone_id != event.drone_id:
                    matches.append(
                        ProximityMatch(
                            MatchKind.DRONE_DRONE,
                            event.drone_id, other.drone_id,
                            event.cell, other.cell,
                        )
                    )
        for dx, dy, dz in _OFFSETS_R1:
            cell = (x + dx, y + dy, z + dz)
            for _, other in self._statics.at_cell(cell):
                matches.append(
                    ProximityMatch(
                        MatchKind.DRONE_STATIC,
                        event.drone_id, other.obstacle_id,
                        event.cell, other.cell,
                    )
                )
        for dx, dy, dz in _OFFSETS_R2:
            cell = (x + dx, y + dy, z + dz)
            for _, other in self._movings.at_cell(cell):
                matches.append(
                    ProximityMatch(
                        MatchKind.DRONE_MOVING,
                        event.drone_id, other.obstacle_id,
                        event.cell, other.cell,
                    )
                )
        return matches

    def _join_obstacle(self, event, offsets, kind: MatchKind) -> list[ProximityMatch]:
        x, y, z = event.cell
        matches = []
        for dx, dy, dz in offsets:
            cell = (x + dx, y + dy, z + dz)
            for _, drone_ev in self._drones.at_cell(cell):
                matches.append(
                    ProximityMatch(
                        kind,
                        drone_ev.drone_id, event.obstacle_id,
                        drone_ev.cell, event.cell,
                    )
                )
        return matches


# -- ordered equivalence ------------------------------------------------------


def fields(m) -> tuple:
    return (m.kind, m.subject_id, m.other_id, m.subject_cell, m.other_cell)


class Pair:
    """The current store and the oracle, fed the same events."""

    def __init__(self):
        self.new = cep.WindowStore()
        self.old = WindowStore()

    def ingest(self, event, now_ms: int) -> list | None:
        """The current store's rows, or None where both raise ValueError."""
        try:
            expect = [fields(m) for m in self.old.ingest(event, now_ms)]
        except ValueError:
            with pytest.raises(ValueError):
                self.new.ingest(event, now_ms)
            return None
        got = self.new.ingest(event, now_ms)
        assert type(got) is list
        assert all(type(m) is cep.ProximityMatch for m in got)
        assert [fields(m) for m in got] == expect, f"divergence at {now_ms}: {event}"
        return got


# Coordinates around the origin, negative included, so that cells repeat.
coord = st.integers(-3, 3)
cells = st.one_of(st.just((0, 0, 0)), st.tuples(coord, coord, coord))
# Steps that land exactly on, one before and one past the 1000 ms retention,
# plus the odd step back in time.
steps = st.one_of(
    st.sampled_from([0, 0, 1, 50, 999, 1000, 1001, -1]), st.integers(0, 1200)
)


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 120))):
        roll = draw(st.integers(0, 16))
        step = draw(steps)
        cell = draw(cells)
        lag = draw(st.sampled_from([0, 0, 0, 1000, 1001, -1]))  # -1: ahead of now
        if roll < 12:
            ops.append(("drone", draw(st.integers(0, 4)), cell, step, lag))
        elif roll < 14:
            ops.append(("static", draw(st.integers(0, 3)), cell, step, lag))
        else:
            ops.append(("moving", draw(st.integers(0, 3)), cell, step, lag))
    return ops


def replay(ops) -> None:
    pair = Pair()
    now = 5_000
    for kind, ident, cell, step, lag in ops:
        now += step
        if kind == "drone":
            event = DroneLocEvent(ident, cell, now - lag)
        elif kind == "static":
            event = SObsEvent(ident, cell)
        else:
            event = MObsEvent(ident, cell, now - lag)
        pair.ingest(event, now)


@settings(max_examples=150, deadline=None)
@given(operations())
def test_ordered_rows_match_the_original_store(ops):
    replay(ops)


def test_crowded_cell_and_retention_edge():
    # Five drones re-reported on one cell every 50 ms, so each arrival joins
    # about twenty stale positions per neighbour, with obstacles around them.
    ops = []
    for tick in range(60):
        for drone in range(5):
            ops.append(("drone", drone, (0, 0, drone % 2), 50 if drone == 0 else 0, 0))
        ops.append(("static", tick % 3, (1, 0, 0), 0, 0))
        ops.append(("moving", 0, (0, 2 - tick % 5, 0), 0, 0))
    ops.append(("drone", 9, (0, 0, 1), 1000, 0))
    ops.append(("drone", 8, (0, 1, 1), 1, 0))
    replay(ops)


# -- the row type ---------------------------------------------------------------


def test_proximity_match_contract():
    row = cep.ProximityMatch(MatchKind.DRONE_DRONE, 1, 2, (0, 0, 0), (1, 0, 0))
    assert cep.ProximityMatch._fields == (
        "kind", "subject_id", "other_id", "subject_cell", "other_cell"
    )
    assert row.kind is MatchKind.DRONE_DRONE and row.other_cell == (1, 0, 0)
    with pytest.raises(AttributeError):
        row.subject_id = 5
    same = cep.ProximityMatch(
        kind=MatchKind.DRONE_DRONE, subject_id=1, other_id=2,
        subject_cell=(0, 0, 0), other_cell=(1, 0, 0),
    )
    assert row == same and hash(row) == hash(same) and len({row, same}) == 1
    assert row != row._replace(other_id=3)
    assert repr(row) == repr(
        ProximityMatch(MatchKind.DRONE_DRONE, 1, 2, (0, 0, 0), (1, 0, 0))
    )


# -- far coordinates ------------------------------------------------------------

# The largest coordinate an earlier int-keyed index could hold.
LIMIT = 2**19 - 3


@pytest.mark.parametrize("cell", [
    (LIMIT + 1, 0, 0), (0, -LIMIT - 1, 0), (0, 0, 2**40), (-(2**40), 2**20, 0),
])
def test_far_cells_join_as_in_the_original_store(cell):
    x, y, z = cell
    pair = Pair()
    pair.ingest(DroneLocEvent(1, (x, y, z), 0), 0)
    pair.ingest(SObsEvent(1, (x, y + 1, z)), 0)
    pair.ingest(MObsEvent(1, (x - 2, y, z), 0), 0)
    pair.ingest(DroneLocEvent(2, (x, y, z + 2), 0), 0)
    pair.ingest(DroneLocEvent(3, (x, y + 2**20, z), 0), 0)
    pair.ingest(DroneLocEvent(4, (x, y, z + 1), 0), 0)
    assert len(pair.ingest(DroneLocEvent(5, (x, y + 1, z + 1), 0), 0)) == 4


def test_cells_at_the_edge_of_the_key_range_join():
    pair = Pair()
    for x, y, z in ((LIMIT, LIMIT, LIMIT), (-LIMIT, -LIMIT, -LIMIT)):
        s = 1 if x > 0 else -1
        pair.ingest(DroneLocEvent(1, (x, y, z), 0), 0)
        pair.ingest(SObsEvent(1, (x, y - s, z)), 0)
        pair.ingest(MObsEvent(1, (x - 2 * s, y, z), 0), 0)
        pair.ingest(DroneLocEvent(2, (x, y, z - 2 * s), 0), 0)
        assert len(pair.new.ingest(DroneLocEvent(3, (x, y, z - s), 0), 0)) == 4
