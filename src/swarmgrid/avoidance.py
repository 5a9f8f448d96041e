"""Collision avoidance: redirect, hover-in-place, and backtracking.

The cascade is ordered: try redirecting into another direction first, hover
when no safe direction exists, and start backtracking once the drone has
hovered or stalled for too long. A drone backtracks while its `bt_attempts`
is nonzero: the first `backtrack_step` sets it, and only
`backtrack_exit_check` resets it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .coordination import LockTable
from .entities import Drone
from .world import Area, Cell, is_int, manhattan, neighbors


@dataclass(frozen=True)
class BacktrackConfig:
    required_steps: int = 3
    max_attempts: int = 10
    hover_threshold: int = 5   # ticks hovering before backtrack kicks in
    stall_threshold: int = 15  # ticks without distance progress

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (is_int(v) and v >= 1):
                raise ValueError(f"backtrack {f.name} must be a positive int, got {v!r}")


@dataclass
class DecisionContext:
    """Everything a single drone's avoidance decision may look at.

    blocked_cells: the cells of the simulation's known obstacle map. The
    simulation keeps this set across ticks and rebuilds it only on a tick
    where that map changed: a static obstacle became known, or a known
    moving obstacle stepped, spawned, died, or entered or left detection.
    From a `detection_radius` of 2 up the map is the whole obstacle field,
    every static and every live spawned moving obstacle, which answers as
    detection would for every cell next to the deciding drone.
    locks: every drone's current cell plus the next cells locked by drones
    earlier in this tick's decision order. Each drone holds its own cell's
    lock from the start and releases a cell only after leaving it (a parked
    drone never does), so the context needs no other record of the drones.
    """

    area: Area
    blocked_cells: set[Cell]
    locks: LockTable


def cell_is_safe(ctx: DecisionContext, drone_id: int, cell: Cell) -> bool:
    """The one conflict predicate: no known obstacle is in the cell, and no
    other drone holds its lock (which it does for its own cell)."""
    if cell in ctx.blocked_cells:
        return False
    holder = ctx.locks.holder(cell)
    return holder is None or holder == drone_id


def avoid(
    drone: Drone,
    ctx: DecisionContext,
    rng: random.Random,
    cfg: BacktrackConfig,
) -> tuple[Cell, str] | None:
    """Pick an avoidance action for a drone whose intent was flagged.

    Preference: distance-reducing safe neighbors, then any other safe
    neighbor (a sidestep or retreat beats standing in a moving crowd), then
    hover. Returns `(cell, "redirect")` or `(drone.current, "hover")`, or
    None when persistent hovering or stalling escalates to a backtrack.
    """
    if drone.hover_streak >= cfg.hover_threshold or drone.stall_ticks >= cfg.stall_threshold:
        return None
    candidates = [
        n for n in neighbors(ctx.area, drone.current)
        if cell_is_safe(ctx, drone.id, n)
    ]
    if not candidates:
        return drone.current, "hover"
    dist_now = manhattan(drone.current, drone.dest)
    reducing = [n for n in candidates if manhattan(n, drone.dest) < dist_now]
    return rng.choice(reducing if reducing else candidates), "redirect"


def backtrack_step(
    drone: Drone,
    ctx: DecisionContext,
    rng: random.Random,
) -> Cell | None:
    """One backtracking iteration; None means hover-in-place. Calling it
    counts an attempt, so the first call starts the backtrack.

    Picks a random dimension and the one-step move that increases distance
    to the destination. Already-aligned dimensions have no away direction
    and count as a failed attempt.
    """
    drone.bt_attempts += 1
    dim = rng.randrange(3)
    if drone.current[dim] == drone.dest[dim]:
        return None
    delta = 1 if drone.current[dim] > drone.dest[dim] else -1
    target = list(drone.current)
    target[dim] += delta
    cell: Cell = tuple(target)  # type: ignore[assignment]
    if cell not in ctx.area or not cell_is_safe(ctx, drone.id, cell):
        return None
    drone.bt_steps_done += 1
    return cell


def backtrack_exit_check(drone: Drone, cfg: BacktrackConfig) -> bool:
    """End the backtrack once enough steps are done or attempts exhausted."""
    if drone.bt_steps_done >= cfg.required_steps or drone.bt_attempts >= cfg.max_attempts:
        drone.bt_steps_done = 0
        drone.bt_attempts = 0
        drone.hover_streak = 0
        drone.stall_ticks = 0
        return True
    return False
