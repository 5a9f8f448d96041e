"""Minimal complex-event-processing engine.

Typed location/detection events are ingested into sliding time windows and
joined on arrival by three fixed proximity predicates (drone-drone,
drone-static, drone-moving). Matches are returned to the caller and, when a
trace callback or sinks are registered, fanned out to them.

Each window indexes its events by one int per cell, so a probe of a
neighbouring cell is one addition and one dict lookup. An arriving drone
walks the 61 cells its predicates can reach once, probing the drone and
moving-obstacle windows at each and the static window at the 19 of them
within radius 1.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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

# A cell's key is (x * _M + y) * _M + z, so the key of a cell plus an offset
# is the cell's key plus the offset's key. Keys stay distinct while every
# coordinate, probed neighbours included, lies in [-_M / 2, _M / 2).
_M = 1 << 20
_COORD_LIMIT = _M // 2 - 3


def _cell_key(cell: Cell) -> int:
    x, y, z = cell
    if not (
        -_COORD_LIMIT <= x <= _COORD_LIMIT
        and -_COORD_LIMIT <= y <= _COORD_LIMIT
        and -_COORD_LIMIT <= z <= _COORD_LIMIT
    ):
        raise ValueError(
            f"cell {cell!r} has a coordinate outside [-{_COORD_LIMIT}, {_COORD_LIMIT}]"
        )
    return (x * _M + y) * _M + z


# The drone join's probe pass: each radius-2 offset key, and whether the
# offset is also a radius-1 one. The radius-1 offsets come in the same
# relative order as in _OFFSETS_R1.
_DRONE_PROBES = tuple(
    (_cell_key(off), off in _OFFSETS_R1) for off in _OFFSETS_R2
)
_KEYS_R1 = tuple(map(_cell_key, _OFFSETS_R1))
_KEYS_R2 = tuple(map(_cell_key, _OFFSETS_R2))

# Join rows are built as tuple.__new__(ProximityMatch, fields), which skips
# the argument handling of the named tuple's own constructor.
_row = tuple.__new__


class _Stream:
    """One event buffer with time-based eviction and a cell-key index.

    Each index bucket holds the `(id, cell)` of its events in arrival order.
    """

    def __init__(self, retention_ms: int):
        self.retention_ms = retention_ms
        self._events: deque = deque()  # (arrival_ms, key), arrival-ordered
        self.by_key: dict[int, deque] = {}

    def evict(self, now_ms: int) -> None:
        """Drop events older than the retention; exactly the retention stays."""
        ev = self._events
        horizon = now_ms - self.retention_ms
        by_key = self.by_key
        while ev and ev[0][0] < horizon:
            key = ev.popleft()[1]
            bucket = by_key[key]
            bucket.popleft()
            if not bucket:
                del by_key[key]

    def append(self, key: int, entity_id: int, cell: Cell, arrival_ms: int) -> None:
        self._events.append((arrival_ms, key))
        bucket = self.by_key.get(key)
        if bucket is None:
            self.by_key[key] = deque(((entity_id, cell),))
        else:
            bucket.append((entity_id, cell))


Sink = Callable[[ProximityMatch], None]


class WindowStore:
    """Sliding windows over the three event streams with on-arrival joins.

    Each `ingest` returns only the matches in which the arriving event
    participates, mirroring on-arrival join-row emission; the same live pair
    is not re-reported on unrelated arrivals. Event cells must be int
    triples whose coordinates lie within +-(2**19 - 3); `ingest` raises
    `ValueError` for any other.
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
        if not isinstance(event, (DroneLocEvent, SObsEvent, MObsEvent)):
            raise TypeError(f"unknown event type: {type(event).__name__}")
        key = _cell_key(event.cell)
        self._drones.evict(now_ms)
        self._statics.evict(now_ms)
        self._movings.evict(now_ms)

        if isinstance(event, DroneLocEvent):
            matches = self._join_drone(event.drone_id, event.cell, key)
            self._drones.append(key, event.drone_id, event.cell, now_ms)
        elif isinstance(event, SObsEvent):
            matches = self._join_obstacle(
                event.obstacle_id, event.cell, key, _KEYS_R1, MatchKind.DRONE_STATIC
            )
            self._statics.append(key, event.obstacle_id, event.cell, now_ms)
        else:
            matches = self._join_obstacle(
                event.obstacle_id, event.cell, key, _KEYS_R2, MatchKind.DRONE_MOVING
            )
            self._movings.append(key, event.obstacle_id, event.cell, now_ms)

        if self._trace is None and not self._sinks:
            return matches
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

    def _join_drone(self, drone_id: int, cell: Cell, key: int) -> list[ProximityMatch]:
        """Rows in the order drone-drone, drone-static, drone-moving, each by
        offset and then by arrival."""
        drones = self._drones.by_key
        statics = self._statics.by_key
        movings = self._movings.by_key
        row, match = _row, ProximityMatch
        drone_drone = MatchKind.DRONE_DRONE
        drone_static = MatchKind.DRONE_STATIC
        drone_moving = MatchKind.DRONE_MOVING
        dd: list[ProximityMatch] = []
        ds: list[ProximityMatch] = []
        dm: list[ProximityMatch] = []
        for off, within_r1 in _DRONE_PROBES:
            k = key + off
            bucket = drones.get(k)
            if bucket:
                for other_id, other_cell in bucket:
                    if other_id != drone_id:
                        dd.append(row(match, (
                            drone_drone, drone_id, other_id, cell, other_cell)))
            if within_r1:
                bucket = statics.get(k)
                if bucket:
                    for other_id, other_cell in bucket:
                        ds.append(row(match, (
                            drone_static, drone_id, other_id, cell, other_cell)))
            bucket = movings.get(k)
            if bucket:
                for other_id, other_cell in bucket:
                    dm.append(row(match, (
                        drone_moving, drone_id, other_id, cell, other_cell)))
        return dd + ds + dm

    def _join_obstacle(
        self, obstacle_id: int, cell: Cell, key: int, offsets, kind: MatchKind,
    ) -> list[ProximityMatch]:
        drones = self._drones.by_key
        row, match = _row, ProximityMatch
        matches: list[ProximityMatch] = []
        for off in offsets:
            bucket = drones.get(key + off)
            if bucket:
                for drone_id, drone_cell in bucket:
                    matches.append(row(match, (
                        kind, drone_id, obstacle_id, drone_cell, cell)))
        return matches

