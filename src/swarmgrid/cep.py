"""Minimal complex-event-processing engine.

Typed location/detection events are ingested into sliding time windows and
joined on arrival by three fixed proximity predicates (drone-drone,
drone-static, drone-moving). Matches are returned to the caller.

Each window indexes its events by cell, so an arrival probes only the cells
its predicates can reach: 61 within radius 2 and 19 within radius 1.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .world import Cell

# Window retentions in milliseconds.
DRONE_RETENTION_MS = 1_000
MOBS_RETENTION_MS = 1_000
SOBS_RETENTION_MS = 3_600_000


@dataclass(frozen=True)
class DroneLocEvent:
    drone_id: int
    cell: Cell
    t: int  # ms


@dataclass(frozen=True)
class SObsEvent:
    obstacle_id: int
    cell: Cell


@dataclass(frozen=True)
class MObsEvent:
    obstacle_id: int
    cell: Cell
    t: int  # ms


class MatchKind(enum.Enum):
    DRONE_DRONE = "drone-drone"
    DRONE_STATIC = "drone-static"
    DRONE_MOVING = "drone-moving"


class ProximityMatch(NamedTuple):
    """One join row; the subject is always the drone."""

    kind: MatchKind
    subject_id: int
    other_id: int
    subject_cell: Cell
    other_cell: Cell


def _near(a: Cell, b: Cell, r: int) -> bool:
    # Closed-interval box test plus the shared-axis clause.
    return (
        abs(a[0] - b[0]) <= r
        and abs(a[1] - b[1]) <= r
        and abs(a[2] - b[2]) <= r
        and (a[0] == b[0] or a[1] == b[1] or a[2] == b[2])
    )


def match_drone_drone(a: DroneLocEvent, b: DroneLocEvent) -> bool:
    return a.drone_id != b.drone_id and _near(a.cell, b.cell, 2)


def match_drone_static(a: DroneLocEvent, o: SObsEvent) -> bool:
    return _near(a.cell, o.cell, 1)


def match_drone_moving(a: DroneLocEvent, o: MObsEvent) -> bool:
    return _near(a.cell, o.cell, 2)


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
    """One event buffer with time-based eviction and a cell index.

    Each index bucket holds the `(id, cell)` of its events in arrival order.
    """

    def __init__(self, retention_ms: int):
        self.retention_ms = retention_ms
        self._events: deque = deque()  # (arrival_ms, cell), arrival-ordered
        self._by_cell: dict[Cell, deque] = {}

    def evict(self, now_ms: int) -> None:
        """Drop events older than the retention; exactly the retention stays."""
        ev = self._events
        while ev and now_ms - ev[0][0] > self.retention_ms:
            cell = ev.popleft()[1]
            bucket = self._by_cell[cell]
            bucket.popleft()
            if not bucket:
                del self._by_cell[cell]

    def append(self, entity_id: int, cell: Cell, arrival_ms: int) -> None:
        self._events.append((arrival_ms, cell))
        self._by_cell.setdefault(cell, deque()).append((entity_id, cell))

    def near(self, cell: Cell, offsets: tuple[Cell, ...]):
        """The `(id, cell)` of the events at `cell` plus each offset, in order."""
        x, y, z = cell
        for dx, dy, dz in offsets:
            yield from self._by_cell.get((x + dx, y + dy, z + dz), ())


class WindowStore:
    """Sliding windows over the three event streams with on-arrival joins.

    Each `ingest` returns only the matches in which the arriving event
    participates, mirroring on-arrival join-row emission; the same live pair
    is not re-reported on unrelated arrivals. A drone's rows come drone-drone,
    then drone-static, then drone-moving, each by offset and then by arrival.
    """

    def __init__(self) -> None:
        self._drones = _Stream(DRONE_RETENTION_MS)
        self._statics = _Stream(SOBS_RETENTION_MS)
        self._movings = _Stream(MOBS_RETENTION_MS)

    def ingest(self, event, now_ms: int) -> list[ProximityMatch]:
        t = getattr(event, "t", now_ms)
        if t > now_ms:
            raise ValueError("event time is ahead of ingestion time")
        if not isinstance(event, (DroneLocEvent, SObsEvent, MObsEvent)):
            raise TypeError(f"unknown event type: {type(event).__name__}")
        for stream in (self._drones, self._statics, self._movings):
            stream.evict(now_ms)
        cell = event.cell

        if isinstance(event, DroneLocEvent):
            me = event.drone_id
            rows = [
                ProximityMatch(MatchKind.DRONE_DRONE, me, other, cell, at)
                for other, at in self._drones.near(cell, _OFFSETS_R2) if other != me
            ]
            rows += [
                ProximityMatch(MatchKind.DRONE_STATIC, me, other, cell, at)
                for other, at in self._statics.near(cell, _OFFSETS_R1)
            ]
            rows += [
                ProximityMatch(MatchKind.DRONE_MOVING, me, other, cell, at)
                for other, at in self._movings.near(cell, _OFFSETS_R2)
            ]
            self._drones.append(me, cell, now_ms)
            return rows

        static = isinstance(event, SObsEvent)
        kind = MatchKind.DRONE_STATIC if static else MatchKind.DRONE_MOVING
        rows = [
            ProximityMatch(kind, drone, event.obstacle_id, at, cell)
            for drone, at in self._drones.near(cell, _OFFSETS_R1 if static else _OFFSETS_R2)
        ]
        (self._statics if static else self._movings).append(event.obstacle_id, cell, now_ms)
        return rows
