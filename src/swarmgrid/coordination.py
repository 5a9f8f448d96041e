"""Mutually-exclusive cell locking.

Every drone always holds the lock of its current cell; while moving it
briefly holds two (current + acquired next). Cells have at most one holder.
"""

from __future__ import annotations

import random
from typing import Callable

from .world import Cell


class NotHolder(RuntimeError):
    """Release attempted by a drone that does not hold the cell."""


class LockTable:
    def __init__(self) -> None:
        self._holders: dict[Cell, int] = {}
        # holder(cell) -> the id of the drone holding the cell, or None. The
        # dict's own get, so the conflict test builds no Python frame.
        self.holder: Callable[[Cell], int | None] = self._holders.get

    def try_acquire(self, drone_id: int, cell: Cell) -> bool:
        """Acquire if unlocked or already held by this drone; never blocks."""
        holder = self._holders.get(cell)
        if holder is None:
            self._holders[cell] = drone_id
            return True
        return holder == drone_id

    def release(self, drone_id: int, cell: Cell) -> None:
        holder = self._holders.get(cell)
        if holder != drone_id:
            raise NotHolder(f"drone {drone_id} does not hold {cell} (holder={holder})")
        del self._holders[cell]


def arbitrate(
    table: LockTable, requests: list[tuple[int, Cell]], rng: random.Random
) -> dict[int, bool]:
    """Resolve concurrent lock requests in a seeded-random serial order.

    For any contested cell exactly one requester wins; the permutation is
    the only source of priority, so no drone is systematically favored.
    """
    drone_ids = [d for d, _ in requests]
    if len(set(drone_ids)) != len(drone_ids):
        raise ValueError("one request per drone")
    order = sorted(requests)
    rng.shuffle(order)
    return {drone_id: table.try_acquire(drone_id, cell) for drone_id, cell in order}
