"""Tick-synchronous simulation engine.

Each tick runs a fixed phase pipeline: obstacle motion, event emission, CEP
ingestion, per-drone decisions in a seeded-random order (greedy step or
backtrack, prediction, avoidance, locking), move commit, and an independent
ground-truth collision scan. Everything is deterministic given the seed.
No decision reads the CEP's matches; they are discarded.

Obstacle detection and the ground-truth scan look cells up in per-tick
dicts rather than comparing every drone with every obstacle or drone:
detection tests only the drones bucketed near each obstacle, and the scan
costs O(drones + obstacles) per tick plus sorting the records it finds.
The clearance margin of the known static obstacles is kept across ticks and
grows only when one is first detected; only the moving obstacles' margin is
built each tick.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .avoidance import (
    AvoidanceAction,
    BacktrackConfig,
    DecisionContext,
    Hover,
    Redirect,
    avoid,
    backtrack_exit_check,
    backtrack_step,
)
from .cep import DroneLocEvent, MObsEvent, SObsEvent, WindowStore
from .coordination import LockTable
from .entities import (
    Drone,
    Mode,
    MovingObstacle,
    StaticObstacle,
    record_move,
    step_moving_obstacle,
)
from .world import (
    Area,
    Cell,
    SafetyParams,
    manhattan,
    neighbors,
    new_area,
)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class EngineInvariantViolation(RuntimeError):
    """Two drones hold or committed the same cell; must never happen."""


DEFAULT_SAFETY = SafetyParams(max_speed=5.0, comm_latency=0.2, processing_time=0.5)

# After a clearance sidestep the drone takes this many greedy steps before it
# may sidestep again. A sidestep adds one cell of distance, so at least two
# forced greedy steps are needed for guaranteed net progress per cycle.
SIDESTEP_COOLDOWN = 2


def clearance_margin(cells: set[Cell]) -> set[Cell]:
    """Cells within Chebyshev distance 1 of any given cell, plus the cells."""
    out = set(cells)
    for (x, y, z) in cells:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    out.add((x + dx, y + dy, z + dz))
    return out


class _BlockedCells:
    """Known static and moving obstacle cells plus every drone cell but the
    deciding drone's.

    Answers membership without building that union for each drone.
    """

    __slots__ = ("static_cells", "moving_cells", "drone_cells", "own")

    def __init__(
        self, static_cells: set[Cell], moving_cells: set[Cell],
        drone_cells: set[Cell], own: Cell,
    ):
        self.static_cells = static_cells
        self.moving_cells = moving_cells
        self.drone_cells = drone_cells
        self.own = own

    def __contains__(self, c: object) -> bool:
        return (
            c in self.static_cells or c in self.moving_cells
            or (c != self.own and c in self.drone_cells)
        )


class _MarginCells:
    """The clearance margin of the known static and moving obstacles.

    Answers membership without building the union of the two margins.
    """

    __slots__ = ("static_margin", "moving_margin")

    def __init__(self, static_margin: set[Cell], moving_margin: set[Cell]):
        self.static_margin = static_margin
        self.moving_margin = moving_margin

    def __contains__(self, c: object) -> bool:
        return c in self.static_margin or c in self.moving_margin


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass
class SimConfig:
    dims: Cell
    drones: list[tuple[Cell, Cell]]  # (start, dest)
    static_obstacles: list[Cell] = field(default_factory=list)
    moving_obstacles: list[tuple[Cell, int, int]] = field(default_factory=list)  # (cell, cadence, spawn_tick)
    seed: int = 0
    spacing: float = 10.0
    sensing_range: float = 30.0
    safety: SafetyParams = DEFAULT_SAFETY
    tick_len_ms: int = 50
    max_ticks: Optional[int] = None
    backtrack: BacktrackConfig = BacktrackConfig()
    obstacles_avoid_drones: bool = True
    detection_radius: int = 2  # Chebyshev cells
    algorithm: str = "proposed"

    def area(self) -> Area:
        return new_area(self.dims, self.spacing, self.sensing_range, self.safety)

    def effective_max_ticks(self) -> int:
        if self.max_ticks is not None:
            return self.max_ticks
        return 50 * sum(self.dims)

    def validate(self) -> None:
        dims = self.dims
        if not (isinstance(dims, (tuple, list)) and len(dims) == 3 and all(map(_is_int, dims))):
            raise ConfigError(f"dims must be three ints, got {dims!r}")
        if self.algorithm != "proposed":
            raise ConfigError(
                f"algorithm must be 'proposed', got {self.algorithm!r}; "
                "the RRT baselines run through `swarmgrid experiment`"
            )
        if not _is_int(self.detection_radius) or self.detection_radius < 0:
            raise ConfigError(
                f"detection_radius must be a non-negative int, got {self.detection_radius!r}"
            )
        if self.max_ticks is not None and (not _is_int(self.max_ticks) or self.max_ticks < 1):
            raise ConfigError(f"max_ticks must be an int of at least 1, got {self.max_ticks!r}")
        if not _is_number(self.tick_len_ms) or self.tick_len_ms <= 0:
            raise ConfigError(f"tick_len_ms must be positive, got {self.tick_len_ms!r}")
        area = self.area()
        starts = [s for s, _ in self.drones]
        dests = [d for _, d in self.drones]
        cells = starts + dests + list(self.static_obstacles)
        cells += [c for c, _, _ in self.moving_obstacles]
        for c in cells:
            if not (isinstance(c, tuple) and len(c) == 3 and all(map(_is_int, c))):
                raise ConfigError(f"cell {c!r} is not three ints")
        if len(set(starts)) != len(starts):
            raise ConfigError("drone start cells must be unique")
        if len(set(dests)) != len(dests):
            raise ConfigError("drone destination cells must be unique")
        for c in starts + dests:
            if c not in area:
                raise ConfigError(f"cell {c} outside the area")
        protected = set(starts) | set(dests)
        for c in self.static_obstacles:
            if c not in area:
                raise ConfigError(f"static obstacle {c} outside the area")
            if c in protected:
                raise ConfigError(f"obstacle on a start or destination: {c}")
        for c, cadence, spawn in self.moving_obstacles:
            if c not in area:
                raise ConfigError(f"moving obstacle {c} outside the area")
            if c in protected:
                raise ConfigError(f"obstacle on a start or destination: {c}")
            if not (_is_int(cadence) and cadence >= 1 and _is_int(spawn) and spawn >= 0):
                raise ConfigError(
                    "moving-obstacle cadence must be an int of at least 1 and "
                    f"spawn_tick a non-negative int, got {cadence!r} and {spawn!r}"
                )


@dataclass(frozen=True)
class CollisionRecord:
    tick: int
    kind: str  # "colocation" | "obstacle" | "swap"
    ids: tuple
    cell: Cell


@dataclass
class SimResult:
    routes: dict[int, list[Cell]]
    collisions: list[CollisionRecord]
    ticks: int
    wall_ms: float
    arrived: dict[int, bool]
    timed_out: bool


TraceFn = Callable[[str], None]


def detect_collisions_ground_truth(
    before: dict[int, Cell],
    after: dict[int, Cell],
    obstacle_cells: dict,
    tick: int,
) -> list[CollisionRecord]:
    """Independent collision scan: co-location, obstacle overlap, edge swap.

    Deliberately shares no code with the prediction stack so the collision
    count measures the navigation layer rather than its own assumptions.
    Every check goes through a cell-keyed map, so a tick costs
    O(drones + obstacles) plus the sorting of the records found. Records
    come out as co-locations by cell, obstacle hits by drone id then
    `str(obstacle id)`, and swaps by `(a, b)` with `a < b`.
    """
    by_cell: dict[Cell, list[int]] = {}
    for drone_id, cell in after.items():
        by_cell.setdefault(cell, []).append(drone_id)
    records = [
        CollisionRecord(tick, "colocation", tuple(sorted(by_cell[cell])), cell)
        for cell in sorted(c for c, ids in by_cell.items() if len(ids) >= 2)
    ]
    hits = [
        (drone_id, obs_id, cell)
        for obs_id, cell in obstacle_cells.items()
        for drone_id in by_cell.get(cell, ())
    ]
    hits.sort(key=lambda hit: (hit[0], str(hit[1])))
    records += [
        CollisionRecord(tick, "obstacle", (drone_id, obs_id), cell)
        for drone_id, obs_id, cell in hits
    ]
    # Only drones that moved can swap: a's old cell is b's new one and back.
    moved = [i for i, cell in after.items() if before[i] != cell]
    left: dict[Cell, list[int]] = {}
    for i in moved:
        left.setdefault(before[i], []).append(i)
    swaps = sorted(
        (a, b)
        for b in moved
        for a in left.get(after[b], ())
        if a < b and after[a] == before[b]
    )
    records += [CollisionRecord(tick, "swap", pair, after[pair[0]]) for pair in swaps]
    return records


def plan_step(
    drone: Drone,
    area: Area,
    occupied: set[Cell],
    rng: random.Random,
) -> Cell:
    """Stochastic greedy step: a random free neighbor closer to the goal.

    `occupied` holds known obstacle cells and other drones' current cells.
    Returns the current cell (a hover intent) when no such neighbor exists,
    which hands the decision to the avoidance cascade.
    """
    dist_now = manhattan(drone.current, drone.dest)
    options = [
        n for n in neighbors(area, drone.current)
        if manhattan(n, drone.dest) < dist_now and n not in occupied
    ]
    if not options:
        return drone.current
    return rng.choice(options)


class Simulation:
    def __init__(self, cfg: SimConfig, trace: Optional[TraceFn] = None):
        cfg.validate()
        self.cfg = cfg
        self.area = cfg.area()
        self.rng = random.Random(cfg.seed)
        self.drones = [
            Drone(id=i, start=s, dest=d) for i, (s, d) in enumerate(cfg.drones)
        ]
        self.statics = [
            StaticObstacle(id=i, cell=c) for i, c in enumerate(cfg.static_obstacles)
        ]
        self.movings = [
            MovingObstacle(id=i, cell=c, cadence=cad, spawn_tick=sp)
            for i, (c, cad, sp) in enumerate(cfg.moving_obstacles)
        ]
        self.locks = LockTable()
        for d in self.drones:
            if not self.locks.try_acquire(d.id, d.current):
                raise EngineInvariantViolation(f"start cell {d.current} already locked")
        self.store = WindowStore()
        self.known_static: dict[int, Cell] = {}
        # Static obstacles never move and stay known once detected, so their
        # cells and clearance margin only grow.
        self._static_cells: set[Cell] = set()
        self._static_margin: set[Cell] = set()
        self._sidestep_cooldown: dict[int, int] = {}
        self.collisions: list[CollisionRecord] = []
        self.tick = 0
        self.trace = trace
        if trace is not None:
            trace("# swarmgrid-trace v1")
            trace(f"# area {self.area.dim_x} {self.area.dim_y} {self.area.dim_z}")
            trace("# fields tick drone mode x y z action npred")
        for d in self.drones:
            if d.current == d.dest:
                d.arrived = True

    # -- per-tick pipeline -------------------------------------------------

    def run_tick(self) -> None:
        cfg = self.cfg
        now_ms = self.tick * cfg.tick_len_ms
        before = {d.id: d.current for d in self.drones}
        drone_cells = set(before.values())

        # Phase 1: obstacle motion on cadence.
        for o in self.movings:
            step_moving_obstacle(
                o, self.tick, self.rng, self.area, drone_cells,
                avoid_drones=cfg.obstacles_avoid_drones,
            )

        # Phases 2-3: event emission and CEP ingestion. No decision reads
        # the matches, so they are not kept.
        drone_blocks = self._drone_blocks(drone_cells)
        for d in self.drones:
            self.store.ingest(DroneLocEvent(d.id, d.current, now_ms), now_ms)
        known_moving: dict[int, Cell] = {}
        new_static: set[Cell] = set()
        for so in self.statics:
            if so.id in self.known_static:
                continue
            if self._detected(so.cell, drone_blocks):
                self.known_static[so.id] = so.cell
                new_static.add(so.cell)
                self.store.ingest(SObsEvent(so.id, so.cell), now_ms)
        for mo in self.movings:
            if not mo.alive or self.tick < mo.spawn_tick:
                continue
            if self._detected(mo.cell, drone_blocks):
                known_moving[mo.id] = mo.cell
                self.store.ingest(MObsEvent(mo.id, mo.cell, now_ms), now_ms)

        # Phase 4: decisions in a fresh seeded-random order.
        order = list(self.drones)
        self.rng.shuffle(order)
        if new_static:
            self._static_cells |= new_static
            self._static_margin |= clearance_margin(new_static)
        moving_cells = set(known_moving.values())
        obstacle_margin = _MarginCells(self._static_margin, clearance_margin(moving_cells))
        committed: dict[int, Cell] = {}
        reserved: set[Cell] = set()
        actions: dict[int, tuple[str, int]] = {}

        for d in self.drones:
            if d.arrived:
                committed[d.id] = d.current

        for d in order:
            if d.arrived:
                actions[d.id] = ("parked", 0)
                continue
            ctx = DecisionContext(
                area=self.area,
                blocked_cells=_BlockedCells(
                    self._static_cells, moving_cells, drone_cells, d.current
                ),
                reserved_cells=reserved,
                locks=self.locks,
            )
            if d.mode is Mode.BACKTRACK:
                intent, action, npred = self._backtrack_decision(d, ctx)
            else:
                intent, action, npred = self._normal_decision(
                    d, ctx, obstacle_margin, drone_cells
                )
            if intent != d.current and not self.locks.try_acquire(d.id, intent):
                intent = d.current
                action = "lock-denied"
            committed[d.id] = intent
            if intent != d.current:
                reserved.add(intent)
            actions[d.id] = (action, npred)

        # Phase 5: commit moves, release old locks, update routes.
        target_counts: dict[Cell, int] = {}
        for drone_id, cell in committed.items():
            target_counts[cell] = target_counts.get(cell, 0) + 1
        for cell, n in target_counts.items():
            if n > 1:
                raise EngineInvariantViolation(f"{n} drones committed {cell}")
        for d in self.drones:
            if d.arrived:
                continue
            nxt = committed[d.id]
            prev = d.current
            record_move(d, nxt)
            if nxt != prev:
                self.locks.release(d.id, prev)
                if d.mode is Mode.HOVER:
                    d.mode = Mode.NORMAL
            elif d.mode is Mode.NORMAL:
                d.mode = Mode.HOVER
            if d.current == d.dest and d.mode is not Mode.BACKTRACK:
                d.arrived = True
            dist = manhattan(d.current, d.dest)
            if dist < d.best_dist:
                d.best_dist = dist
                d.stall_ticks = 0
            else:
                d.stall_ticks += 1

        # Phase 6: ground-truth collision scan, independent of CEP.
        after = {d.id: d.current for d in self.drones}
        obstacle_cells: dict = {
            f"s{so.id}": so.cell for so in self.statics
        }
        for mo in self.movings:
            if mo.alive and self.tick >= mo.spawn_tick:
                obstacle_cells[f"m{mo.id}"] = mo.cell
        self.collisions += detect_collisions_ground_truth(
            before, after, obstacle_cells, self.tick
        )

        if self.trace is not None:
            for d in self.drones:
                action, npred = actions[d.id]
                x, y, z = d.current
                self.trace(
                    f"{self.tick}\t{d.id}\t{d.mode.value}\t{x}\t{y}\t{z}"
                    f"\t{action}\t{npred}"
                )
        self.tick += 1

    def _drone_blocks(self, drone_cells: set[Cell]) -> dict[Cell, list[Cell]]:
        """Drone cells bucketed into cubes of side 2 * detection_radius + 1."""
        side = 2 * self.cfg.detection_radius + 1
        blocks: dict[Cell, list[Cell]] = {}
        for c in drone_cells:
            blocks.setdefault((c[0] // side, c[1] // side, c[2] // side), []).append(c)
        return blocks

    def _detected(self, cell: Cell, drone_blocks: dict[Cell, list[Cell]]) -> bool:
        """Is a drone within Chebyshev detection_radius of the cell?

        The cube of that radius around the cell spans at most two blocks per
        axis, so only the drones in those (at most 8) blocks are tested.
        """
        r = self.cfg.detection_radius
        side = 2 * r + 1
        x, y, z = cell
        for bx in {(x - r) // side, (x + r) // side}:
            for by in {(y - r) // side, (y + r) // side}:
                for bz in {(z - r) // side, (z + r) // side}:
                    for dx, dy, dz in drone_blocks.get((bx, by, bz), ()):
                        if abs(dx - x) <= r and abs(dy - y) <= r and abs(dz - z) <= r:
                            return True
        return False

    def _in_hazard_margin(
        self, cell: Cell, drone: Drone,
        obstacle_margin: _MarginCells, drone_cells: set[Cell],
    ) -> bool:
        """Is the cell within Chebyshev 1 of a known hazard or another drone?"""
        if cell in obstacle_margin:
            return True
        x, y, z = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    c = (x + dx, y + dy, z + dz)
                    if c in drone_cells and c != drone.current:
                        return True
        return False

    def _normal_decision(
        self, d: Drone, ctx: DecisionContext,
        obstacle_margin: _MarginCells, drone_cells: set[Cell],
    ) -> tuple[Cell, str, int]:
        """Greedy step with hazard clearance.

        Prefers a goal-reducing neighbor outside the clearance margin of
        known obstacles and other drones. When every reducing neighbor sits
        in the margin, the drone sidesteps to a clear non-reducing cell
        (unless on cooldown or nearly home), which trades route length for
        separation. Otherwise it takes a reducing cell anyway and lets the
        prediction and avoidance layers handle any conflict.
        """
        def in_margin(n: Cell) -> bool:
            return self._in_hazard_margin(n, d, obstacle_margin, drone_cells)

        blocked = ctx.blocked_cells
        dist_now = manhattan(d.current, d.dest)
        ns = neighbors(self.area, d.current)
        reducing = [
            n for n in ns
            if manhattan(n, d.dest) < dist_now and n not in blocked
        ]
        clear = [n for n in reducing if n == d.dest or not in_margin(n)]
        cool = self._sidestep_cooldown.get(d.id, 0)
        if cool:
            self._sidestep_cooldown[d.id] = cool - 1
        if clear:
            intent = self.rng.choice(clear)
        elif reducing:
            sidesteps = [
                n for n in ns
                if n not in blocked and not in_margin(n)
                and not self._count_conflicts(d, n, ctx)
            ]
            if sidesteps and dist_now > 2 and not cool:
                intent = self.rng.choice(sidesteps)
                self._sidestep_cooldown[d.id] = SIDESTEP_COOLDOWN
            else:
                intent = self.rng.choice(reducing)
        else:
            intent = d.current
        npred = self._count_conflicts(d, intent, ctx)
        if intent == d.current or npred > 0:
            return self._apply_avoidance(d, ctx)
        return intent, "advance", npred

    def _apply_avoidance(self, d: Drone, ctx: DecisionContext) -> tuple[Cell, str, int]:
        act: AvoidanceAction = avoid(d, ctx, self.rng, self.cfg.backtrack)
        if isinstance(act, Redirect):
            return act.next, "redirect", 1
        if isinstance(act, Hover):
            return d.current, "hover", 1
        d.mode = Mode.BACKTRACK
        return self._backtrack_decision(d, ctx)

    def _backtrack_decision(self, d: Drone, ctx: DecisionContext) -> tuple[Cell, str, int]:
        cell = backtrack_step(d, ctx, self.rng)
        backtrack_exit_check(d, self.cfg.backtrack)
        if cell is None:
            return d.current, "bt-hover", 0
        return cell, "backtrack", 0

    def _count_conflicts(self, d: Drone, intent: Cell, ctx: DecisionContext) -> int:
        """Algorithm-1 rule hits for this intent against committed state."""
        n = 0
        if intent in ctx.reserved_cells:
            n += 1  # rule 1: shared desired next cell
        if intent in ctx.blocked_cells:
            n += 1  # rule 1/2/3: another drone's or obstacle's current cell
        holder = ctx.locks.holder(intent)
        if holder is not None and holder != d.id:
            n += 1
        return n

    # -- mission loop ------------------------------------------------------

    def all_arrived(self) -> bool:
        return all(d.arrived for d in self.drones)

    def run(self) -> SimResult:
        start = time.perf_counter()
        max_ticks = self.cfg.effective_max_ticks()
        while not self.all_arrived() and self.tick < max_ticks:
            self.run_tick()
        wall_ms = (time.perf_counter() - start) * 1000.0
        return SimResult(
            routes={d.id: list(d.route) for d in self.drones},
            collisions=list(self.collisions),
            ticks=self.tick,
            wall_ms=wall_ms,
            arrived={d.id: d.arrived for d in self.drones},
            timed_out=not self.all_arrived(),
        )


def run_mission(cfg: SimConfig, trace: Optional[TraceFn] = None) -> SimResult:
    return Simulation(cfg, trace=trace).run()
