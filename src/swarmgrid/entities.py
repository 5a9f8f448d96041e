"""Drones, obstacles, and route bookkeeping."""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence, Set as AbstractSet
from dataclasses import dataclass, field

from .world import Area, Cell, DIRECTIONS, _choice, manhattan


class IllegalMove(ValueError):
    """A drone move that is neither a hover nor an axis-adjacent step."""


@dataclass
class Drone:
    """A swarm member and its accumulated route.

    The route starts at the start cell and records every tick's position,
    including hovers (repeated cells). `current` is always the last entry.
    The counters decide the drone's mode: it is backtracking while
    `bt_attempts` is nonzero, and otherwise hovering while `hover_streak` is.
    """

    id: int
    start: Cell
    dest: Cell
    current: Cell = None  # type: ignore[assignment]
    route: list[Cell] = field(default_factory=list)
    hover_streak: int = 0
    sidestep_cooldown: int = 0  # greedy steps left before the next clearance sidestep
    bt_steps_done: int = 0
    bt_attempts: int = 0
    best_dist: int = 0
    stall_ticks: int = 0
    arrived: bool = False

    def __post_init__(self) -> None:
        if self.current is None:
            self.current = self.start
        if not self.route:
            self.route = [self.start]
        self.best_dist = manhattan(self.current, self.dest)


@dataclass
class MovingObstacle:
    """Occupies one cell and takes one axis step every `cadence` ticks.

    May wander out of the area, after which it is gone for good (alive=False).
    spawn_tick > 0 models obstacles that appear mid-mission.
    """

    id: int
    cell: Cell
    cadence: int = 5
    spawn_tick: int = 0
    alive: bool = True


class ObstacleField:
    """A mission's obstacles, when they move, and where the scan sees them.

    `movings` holds the moving obstacles by id. `cells` is the obstacle
    map: label -> cell of every static obstacle (`s<i>`, by its index in
    the config) and of every moving one live and spawned (`m<i>`). `at` is
    the same map turned around, the scan's: cell -> a tuple of the labels
    on it, in no set order. `due` is the calendar of obstacle steps, tick
    -> the ids of the moving obstacles due to step on it (after the
    calendar queue of Brown, CACM 31(10), 1988): each is filed under its
    spawn tick and, while it lives, again one cadence after each step. A
    moving obstacle moves, spawns or dies only on a tick of its cadence, so
    no other tick touches one.
    """

    def __init__(self, statics: list[Cell], movings: list[tuple[Cell, int, int]]):
        self.movings = [
            MovingObstacle(id=i, cell=c, cadence=cad, spawn_tick=sp)
            for i, (c, cad, sp) in enumerate(movings)
        ]
        self.cells: dict[str, Cell] = {f"s{i}": c for i, c in enumerate(statics)}
        self.at: dict[Cell, tuple[str, ...]] = {}
        for label, c in self.cells.items():
            self.at[c] = self.at.get(c, ()) + (label,)
        self.due: dict[int, list[int]] = {}
        for o in self.movings:
            self.due.setdefault(o.spawn_tick, []).append(o.id)
        # Each moving obstacle's label as a 1-tuple, its `at` entry while
        # it has its cell to itself: a step then builds no tuple.
        self._alone = [(f"m{o.id}",) for o in self.movings]

    def step(
        self, tick: int, step: Callable[..., None], rng: random.Random, area: Area,
        occupied_drone_cells: AbstractSet[Cell], avoid_drones: bool,
    ) -> Sequence[int]:
        """Step the moving obstacles due on `tick`, each as `step(o, tick,
        rng, area, occupied_drone_cells, avoid_drones)`, in id order so that
        the draws keep their order when cadences are mixed. Each one still
        alive is filed again one cadence on, and `cells` and `at` change
        only for those that moved, spawned or died. Returns their ids,
        empty on a tick with none due. The caller passes `step` as its own
        module's `step_moving_obstacle`, where a tracer may wrap it.
        """
        due = self.due.pop(tick, None)
        if due is None:
            return ()
        due.sort()
        cells, at, alone, movings, calendar = (
            self.cells, self.at, self._alone, self.movings, self.due)
        for i in due:
            o = movings[i]
            one = alone[i]
            label = one[0]
            # None until the obstacle's spawn step puts it on the map.
            old = cells.get(label)
            step(o, tick, rng, area, occupied_drone_cells, avoid_drones)
            if o.alive:
                calendar.setdefault(tick + o.cadence, []).append(i)
                new = o.cell
                if new == old:
                    continue
                cells[label] = new
                here = at.setdefault(new, one)
                if here is not one:
                    at[new] = here + one
            elif old is not None:
                del cells[label]
            if old is not None:
                there = at.pop(old)
                if len(there) > 1:
                    at[old] = tuple(x for x in there if x != label)
        return due


def record_move(d: Drone, nxt: Cell) -> None:
    """Append the next cell to the drone's route and update hover bookkeeping."""
    cur = d.current
    if nxt == cur:
        d.hover_streak += 1
    elif abs(nxt[0] - cur[0]) + abs(nxt[1] - cur[1]) + abs(nxt[2] - cur[2]) == 1:
        d.hover_streak = 0
    else:
        raise IllegalMove(f"drone {d.id}: {d.current} -> {nxt}")
    d.route.append(nxt)
    d.current = nxt


def step_moving_obstacle(
    o: MovingObstacle,
    tick: int,
    rng: random.Random,
    area: Area,
    occupied_drone_cells: AbstractSet[Cell],
    avoid_drones: bool = True,
) -> None:
    """Advance a moving obstacle for one tick.

    Off-cadence ticks leave it in place. On cadence it takes one uniformly
    random axis step; a step beyond the boundary removes it from the zone.
    With avoid_drones, drone-occupied targets are re-sampled among the free
    directions, hovering if every direction is occupied. Each pick draws as
    `rng.choice` would, through `world._choice`, and the area bounds are
    compared inline.
    """
    if not o.alive or tick < o.spawn_tick:
        return
    if (tick - o.spawn_tick) % o.cadence != 0:
        return
    x, y, z = o.cell
    dx, dy, dz = _choice(rng, DIRECTIONS)
    target = (x + dx, y + dy, z + dz)
    if avoid_drones and target in occupied_drone_cells:
        free = [
            (x + ex, y + ey, z + ez)
            for ex, ey, ez in DIRECTIONS
            if (x + ex, y + ey, z + ez) not in occupied_drone_cells
        ]
        if not free:
            return
        target = _choice(rng, free)
    x, y, z = target
    if 0 <= x < area.dim_x and 0 <= y < area.dim_y and 0 <= z < area.dim_z:
        o.cell = target
    else:
        o.alive = False
