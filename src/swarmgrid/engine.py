"""Tick-synchronous simulation engine.

Each tick, `Simulation.run_tick`, runs a fixed phase pipeline: obstacle
motion (`ObstacleField.step`), obstacle detection (`_detect`), per-drone
decisions in a seeded-random order (`_decide`: greedy step or backtrack,
conflict check, avoidance, locking), move commit (`_commit`), an
independent ground-truth collision scan (`detect_collisions_ground_truth`)
and the trace rows (`_write_rows`). Everything is deterministic given the
seed.
The tick does not feed the CEP (`swarmgrid.cep`): no decision needs its
matches.

One predicate, `avoidance.cell_is_safe`, defines a conflict: a known obstacle
in the cell, or another drone holding its lock. Each drone holds its own
cell's lock from the start and releases a cell only after leaving it, so the
lock table holds every drone's cell as well as the cells claimed earlier in
the tick. So a lock is never denied.

An obstacle is known while it is live and either `detection_radius` is at
least 2 or a drone is within Chebyshev `detection_radius` of it; a static
obstacle stays known once detected. The simulation keeps the known
obstacles as one map, scan label -> cell. From radius 2 up no detection
test is needed and that map is the whole field: every cell a decision reads
(the reducing cells and sidesteps with their hazard margin, `avoid`'s
neighbours, the backtrack cell) lies next to the deciding drone's
start-of-tick cell, so any obstacle that can change a decision is within
Chebyshev 2 of that cell, where the drone detects it this tick. Below
radius 2 each obstacle but a known static probes the drone cells around it
every tick.

The hazard margin, the cells within Chebyshev 1 of a known obstacle or of
another drone, is read from one grid of counts kept across ticks over the
area padded by one cell on each side (`HazardGrid`): each known obstacle
adds 2 and each drone, flying or parked, 1 over its 27-cell cube. The
deciding drone adds 1 to every cell next to its own, so a candidate cell is
in the margin exactly when its count is at least 2, one list read. The
counts move where what they count moves. In `_detect` `HazardGrid.move`
diffs the known map of the last tick into this tick's: a known obstacle's
axis step moves only its cube's trailing and leading 9-cell faces, while a
static becoming known, a spawn, a death, or an entry to or exit from
detection moves all 27. In `_commit` every drone's step moves two faces, in
one `HazardGrid.steps` call.

The counts are a plain list of ints, 8 bytes a slot: 4.4 MB at 80^3, and at
most 128 MiB at the GRID_CELLS_MAX cells `SimConfig.validate` allows. An
`array("I")` would take half that, but CPython 3.11 specializes the int
subscript read and write of a list (PEP 659) and has no such fast path for
an array, so the 18 count updates of a drone's step cost about 1.3 µs on a
list against 2.0-2.4 µs on an array (timeit, CPython 3.11.7 on a 2-core
VM). The decisions' blocked cells are one
set, rebuilt only on a tick where a known obstacle changed. The scan costs
one pass over the flying drones plus set intersections with the parked
drones' and the obstacles' cells, and builds drone lists only for cells
holding more than one drone (see `detect_collisions_ground_truth`).

The obstacles are one `entities.ObstacleField`, which the open-loop flight
of the planned baselines uses too. It keeps a calendar of obstacle steps,
tick -> the ids of the moving obstacles due to step on it, and the
obstacle map both ways: scan label -> cell, and cell -> labels for the
scan. It changes both only for the obstacles that step. Phase 1 steps only
the due obstacles, in id order so that the draws keep their order when
cadences are mixed. On a tick with no obstacle due, phase 2 from radius 2
up keeps its known map without looking at it (below radius 2 the known
moving obstacles depend on where the drones are, so it rebuilds the map
every tick), and the scan reads the field's map as it stands. So on a
common cadence of 5, four ticks in five pay nothing per obstacle.

A drone that has arrived parks on its destination for good. The flying
drones, the drone cells (as a set and in the grid) and the parked drones'
cells are kept across ticks, and a drone's entries move only when it
moves. So a parked drone costs a tick its draw in the shuffle of all
drones (the draw order is part of the routes) and, with a trace on, one
trace line: the tick number joined to its row, passed to `trace` in one
call. It still detects obstacles, blocks cells and can be hit. The
simulation keeps every drone's trace row (its line after the tick number,
newline included) in a list by drone id. A parked drone's row is written
once, when it parks; a tick rebuilds only the rows of the drones that
decided on it, then emits every row with no test per drone.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .avoidance import (
    BacktrackConfig,
    DecisionContext,
    avoid,
    backtrack_exit_check,
    backtrack_step,
    cell_is_safe,
)
from .coordination import LockTable
from .entities import Drone, ObstacleField, record_move, step_moving_obstacle
from .world import (
    DIRECTIONS,
    Area,
    Cell,
    SafetyParams,
    _choice,
    is_finite_number,
    is_int,
    neighbors,
    new_area,
)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class EngineInvariantViolation(RuntimeError):
    """Two drones committed the same cell, or a safe cell's lock was denied."""


# After a clearance sidestep the drone takes this many greedy steps before it
# may sidestep again. A sidestep adds one cell of distance, so at least two
# forced greedy steps are needed for guaranteed net progress per cycle.
SIDESTEP_COOLDOWN = 2

# The trace's `npred` column: 1 when the avoidance cascade redirects or hovers.
_NPRED = {"redirect": 1, "hover": 1}


def clearance_margin(cells: set[Cell]) -> set[Cell]:
    """Cells within Chebyshev distance 1 of any given cell, plus the cells."""
    out = set(cells)
    for (x, y, z) in cells:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    out.add((x + dx, y + dy, z + dz))
    return out


# Offsets of the 27 cells within Chebyshev distance 1 of a cell.
_CUBE = tuple((dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1))


# The 9 offsets of _CUBE on the face a unit axis step points at, by step.
_FACE = {
    step: tuple(o for o in _CUBE if o[0] * step[0] + o[1] * step[1] + o[2] * step[2] == 1)
    for step in DIRECTIONS
}

# What a known obstacle and a drone add over their cube in the hazard grid.
_OBSTACLE, _DRONE = 2, 1

# The most cells `validate` lets the hazard grid have: 128 MiB at 8 bytes a
# list slot. The counts are a list, not a half-size `array`, because the
# interpreter specializes list subscripts (see the module docstring).
GRID_CELLS_MAX = 2**24


def _grid_cells(dims: Cell) -> int:
    """Cells of the hazard grid over an area of `dims`, padded by one cell
    on each side."""
    return (dims[0] + 2) * (dims[1] + 2) * (dims[2] + 2)


class HazardGrid:
    """Weights added over the 27-cell cubes of cells in an area of
    `(X, Y, Z)`, counted over the area padded by one cell on each side at
    flat index `(x+1)·(Y+2)(Z+2) + (y+1)·(Z+2) + (z+1)`.

    `cube` holds the cube's 27 flat offsets, and `faces`, by the flat delta
    of each unit axis step, the 9 flat offsets of the cube's face the step
    points at.
    """

    def __init__(self, dims: Cell):
        self.sy = dims[2] + 2
        self.sx = (dims[1] + 2) * self.sy
        self.base = self.sx + self.sy + 1
        self.counts = [0] * _grid_cells(dims)

        def flat(o: Cell) -> int:
            return o[0] * self.sx + o[1] * self.sy + o[2]

        self.cube = tuple(map(flat, _CUBE))
        self.faces = {flat(step): tuple(map(flat, _FACE[step])) for step in DIRECTIONS}

    def at(self, cell: Cell) -> int:
        """The flat index of a cell of the padded area."""
        return cell[0] * self.sx + cell[1] * self.sy + cell[2] + self.base

    def add(self, cell: Cell, weight: int) -> None:
        """Add `weight` (or take it, if negative) over the cell's cube."""
        counts = self.counts
        i = self.at(cell)
        for o in self.cube:
            counts[i + o] += weight

    def steps(self, olds: list[Cell], news: list[Cell], weight: int) -> None:
        """Move `weight` from the cube of each cell of `olds` to that of the
        cell of `news` at the same place, one axis step away: only the old
        cube's trailing face and the new cube's leading face change."""
        counts, faces, sx, sy, base = self.counts, self.faces, self.sx, self.sy, self.base
        for old, new in zip(olds, news):
            p = old[0] * sx + old[1] * sy + old[2] + base
            q = new[0] * sx + new[1] * sy + new[2] + base
            for o in faces[q - p]:
                counts[p - o] -= weight
                counts[q + o] += weight

    def move(self, last: dict[str, Cell], now: dict[str, Cell], weight: int) -> None:
        """Move the weights of the obstacles in `last` (scan label -> cell)
        to those of the obstacles in `now`, one tick later.

        An obstacle in both is on the same cell or one axis step away, since
        an obstacle steps at most once a tick, and an obstacle that steps
        off the area dies there. An obstacle in only one of them moves its
        whole cube.
        """
        olds = []
        news = []
        for i, cell in last.items():
            new = now.get(i)
            if new is None:
                self.add(cell, -weight)
            elif new != cell:
                olds.append(cell)
                news.append(new)
        self.steps(olds, news, weight)
        for i, cell in now.items():
            if i not in last:
                self.add(cell, weight)


def _in_hazard_margin(counts: list[int], i: int) -> bool:
    """Is the cell at flat index `i`, next to the deciding drone, within
    Chebyshev 1 of a known obstacle or of another drone?"""
    return counts[i] >= 2


def _shuffle(rng: random.Random, xs: list) -> None:
    """Shuffle xs in place exactly as CPython's rng.shuffle(xs) does.

    For i from len(xs) - 1 down to 1 it draws j below i + 1 with
    getrandbits((i + 1).bit_length()) until the value is below i + 1, and
    swaps xs[i] and xs[j]. So the order and the generator's state match
    rng.shuffle's, without a method call per element.
    """
    bits = rng.getrandbits
    for i in range(len(xs) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = bits(k)
        while j >= n:
            j = bits(k)
        xs[i], xs[j] = xs[j], xs[i]


# SimConfig's scalar settings in the order `validate` checks them: what each
# must be, and the test of that.
_SCALAR_RULES: tuple[tuple[str, str, Callable[[object], bool]], ...] = (
    ("dims", "three ints",
     lambda v: isinstance(v, (tuple, list)) and len(v) == 3 and all(map(is_int, v))),
    ("detection_radius", "a non-negative int", lambda v: is_int(v) and v >= 0),
    ("max_ticks", "null or an int of at least 1", lambda v: v is None or is_int(v) and v >= 1),
    ("spacing", "a finite number", is_finite_number),
    ("sensing_range", "a finite number", is_finite_number),
    ("seed", "an int", is_int),
    ("obstacles_avoid_drones", "true or false", lambda v: isinstance(v, bool)),
)


@dataclass
class SimConfig:
    dims: Cell
    drones: list[tuple[Cell, Cell]]  # (start, dest)
    static_obstacles: list[Cell] = field(default_factory=list)
    moving_obstacles: list[tuple[Cell, int, int]] = field(default_factory=list)  # (cell, cadence, spawn_tick)
    seed: int = 0
    spacing: float = 10.0
    sensing_range: float = 30.0
    safety: SafetyParams = SafetyParams()
    max_ticks: Optional[int] = None
    backtrack: BacktrackConfig = BacktrackConfig()
    obstacles_avoid_drones: bool = True
    detection_radius: int = 2  # Chebyshev cells

    def area(self) -> Area:
        return new_area(self.dims, self.spacing, self.sensing_range, self.safety)

    def effective_max_ticks(self) -> int:
        if self.max_ticks is not None:
            return self.max_ticks
        return 50 * sum(self.dims)

    def validate(self) -> None:
        """Check the scalars, then every cell; raise ConfigError naming the first
        bad field. SafetyParams, BacktrackConfig and Area check themselves."""
        for name, rule, ok in _SCALAR_RULES:
            v = getattr(self, name)
            if not ok(v):
                raise ConfigError(f"{name} must be {rule}, got {v!r}")
        area = self.area()
        cells = _grid_cells(area.dims)
        if cells > GRID_CELLS_MAX:
            raise ConfigError(
                f"dims {area.dims} padded by one cell on each side make a hazard grid of "
                f"{cells} cells, over the cap of 2**24 = {GRID_CELLS_MAX}"
            )
        starts = [s for s, _ in self.drones]
        dests = [d for _, d in self.drones]
        # Each field's path, with {} for the index, is formatted only to raise.
        cell_fields = (
            ("drones[{}].start", starts),
            ("drones[{}].dest", dests),
            ("static_obstacles[{}]", self.static_obstacles),
            ("moving_obstacles[{}].cell", [c for c, _, _ in self.moving_obstacles]),
        )
        for where, cells in cell_fields:
            for i, c in enumerate(cells):
                if not (isinstance(c, tuple) and len(c) == 3 and all(map(is_int, c))):
                    raise ConfigError(f"{where.format(i)} {c!r} is not three ints")
                if c not in area:
                    raise ConfigError(f"{where.format(i)} {c} is outside the area {area.dims}")
        for where, cells in cell_fields[:2]:
            if len(set(cells)) < len(cells):
                i, c = next((i, c) for i, c in enumerate(cells) if cells.index(c) < i)
                raise ConfigError(f"{where.format(i)} {c} is {where.format(cells.index(c))} too")
        ends = set(starts) | set(dests)
        for where, cells in cell_fields[2:]:
            if not ends.isdisjoint(cells):
                i = next(i for i, c in enumerate(cells) if c in ends)
                raise ConfigError(f"{where.format(i)} {cells[i]} is a drone's start or dest")
        for i, (_, cadence, spawn) in enumerate(self.moving_obstacles):
            if not (is_int(cadence) and cadence >= 1 and is_int(spawn) and spawn >= 0):
                raise ConfigError(f"moving_obstacles[{i}] needs a cadence int of at least 1 and "
                                  f"a non-negative spawn_tick int, got {cadence!r} and {spawn!r}")


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


# A trace callback takes each trace line, the three header lines too, ended
# by one "\n", so a text file's own `write` writes the trace file.
TraceFn = Callable[[str], None]


def detect_collisions_ground_truth(
    before: dict[int, Cell],
    after: dict[int, Cell],
    obstacles_at: dict[Cell, tuple[str, ...]],
    tick: int,
    parked: dict[Cell, int],
) -> list[CollisionRecord]:
    """Independent collision scan: co-location, obstacle overlap, edge swap.

    `before` and `after` hold the cells of the drones that may move this
    tick; `parked` maps the cell of each drone that stays put to its id;
    `obstacles_at` maps each obstacle cell to the obstacle labels on it
    (`ObstacleField.at`). The records are those of one scan over all the
    drones, with every parked drone in `before` and `after` at its cell.

    Deliberately shares no code with the decision layer's conflict model
    (`cell_is_safe` and the lock table), so the collision count measures
    the navigation layer rather than its own assumptions.

    A tick costs one pass over the drones that may move, set intersections
    of their cells and the parked cells with the obstacle cells, done in C
    over the smaller side of each, and work per record found, plus sorting
    the records. It maps each flying drone's cell to its id; a cell that
    two flying drones share keeps the later. Only a crowded cell, one that
    holds more than one drone, flying or parked, gets a list of its drones.
    A swap needs a drone on the cell a moved drone left, so each moved
    drone probes the flying drones' map once. Records come out as
    co-locations by cell, obstacle hits by drone id then label, and swaps
    by `(a, b)` with `a < b`.
    """
    at = {cell: i for i, cell in after.items()}
    crowded: dict[Cell, list[int]] = {}
    # The map is shorter than `after` only when flying drones share a cell.
    if len(at) < len(after):
        for i, cell in after.items():
            last = at[cell]
            if last != i:
                ids = crowded.get(cell)
                if ids is None:
                    crowded[cell] = [i, last]
                else:
                    ids.append(i)
    for cell in parked.keys() & at.keys():
        ids = crowded.get(cell)
        if ids is None:
            crowded[cell] = [at[cell], parked[cell]]
        else:
            ids.append(parked[cell])
    records = [
        CollisionRecord(tick, "colocation", tuple(sorted(crowded[cell])), cell)
        for cell in sorted(crowded)
    ]
    hits = [
        (drone_id, label, cell)
        for cell in (obstacles_at.keys() & at.keys()) | (obstacles_at.keys() & parked.keys())
        for drone_id in crowded.get(cell) or (at[cell] if cell in at else parked[cell],)
        for label in obstacles_at[cell]
    ]
    # Labels are unique, so the tuples order by drone id, then label.
    hits.sort()
    records += [
        CollisionRecord(tick, "obstacle", (drone_id, label), cell)
        for drone_id, label, cell in hits
    ]
    # a and b swap when b holds the cell a left and a holds the one b left.
    # A b that is parked has no `before` entry; one that stayed on the cell
    # a left has it as its `before`, not a's new cell.
    swaps = sorted(
        (a, b)
        for a, cell in after.items()
        if (left := before[a]) != cell and left in at
        for b in crowded.get(left) or (at[left],)
        if a < b and before.get(b) == cell
    )
    records += [CollisionRecord(tick, "swap", pair, after[pair[0]]) for pair in swaps]
    return records


class Simulation:
    def __init__(self, cfg: SimConfig, trace: Optional[TraceFn] = None):
        cfg.validate()
        self.cfg = cfg
        self.area = cfg.area()
        self.rng = random.Random(cfg.seed)
        self.drones = [
            Drone(id=i, start=s, dest=d) for i, (s, d) in enumerate(cfg.drones)
        ]
        self.field = ObstacleField(cfg.static_obstacles, cfg.moving_obstacles)
        self.locks = LockTable()
        for d in self.drones:
            if not self.locks.try_acquire(d.id, d.current):
                raise EngineInvariantViolation(f"start cell {d.current} already locked")
        self.collisions: list[CollisionRecord] = []
        self.tick = 0
        self.trace = trace
        if trace is not None:
            trace("# swarmgrid-trace v1\n")
            trace(f"# area {self.area.dim_x} {self.area.dim_y} {self.area.dim_z}\n")
            trace("# fields tick drone mode x y z action npred\n")
        for d in self.drones:
            if d.current == d.dest:
                d.arrived = True
        # Per-drone state kept across ticks: the flying drones in id order,
        # every drone's cell, and the parked drones' cells as cell -> id.
        # With a trace on, every drone's trace row by id: a parked drone's
        # is written when it parks, a flying drone's each tick it decides.
        # The hazard grid holds every drone's cube and every known
        # obstacle's. The known obstacles are kept as label -> cell, and
        # their cells as the decisions' blocked cells; from radius 2 up they
        # are the whole field from the start.
        self._flying = [d for d in self.drones if not d.arrived]
        self._drone_cells: set[Cell] = {d.current for d in self.drones}
        self._grid = HazardGrid(cfg.dims)
        for c in self._drone_cells:
            self._grid.add(c, _DRONE)
        self._parked: dict[Cell, int] = {}
        self._rows = [""] * len(self.drones)
        self._park([d for d in self.drones if d.arrived])
        self._known: dict[str, Cell] = {}
        self._blocked: set[Cell] = set()
        if cfg.detection_radius >= 2:
            self._detect(True)

    def _park(self, drones: list[Drone]) -> None:
        """Enter newly arrived drones in the parked state. A parked drone
        never moves or changes mode again."""
        for d in drones:
            self._parked[d.current] = d.id
        if self.trace is not None:
            self._write_rows(drones, dict.fromkeys([d.id for d in drones], "parked"))

    # -- per-tick pipeline -------------------------------------------------

    def run_tick(self) -> None:
        tick = self.tick
        flying = self._flying
        before = {d.id: d.current for d in flying}
        # Phase 1: only the moving obstacles due this tick step, in id order.
        due = self.field.step(tick, step_moving_obstacle, self.rng, self.area,
                              self._drone_cells, self.cfg.obstacles_avoid_drones)
        self._detect(due)
        committed, actions = self._decide()
        landed = self._commit(flying, committed)
        # Phase 5: ground-truth collision scan, independent of the decisions.
        self.collisions += detect_collisions_ground_truth(
            before, committed, self.field.at, tick, self._parked)
        # Phase 6: the trace. A parked drone's row was written when it parked.
        trace = self.trace
        if trace is not None:
            self._write_rows(flying, actions)
            t = str(tick)
            for row in self._rows:
                trace(t + row)
        if landed:
            self._park(landed)
            self._flying = [d for d in flying if not d.arrived]
        self.tick += 1

    def _detect(self, due: Sequence[int] | bool) -> None:
        """Phase 2: obstacle detection, by the rule in the module docstring.
        From radius 2 up the known obstacles are the whole field, which
        changes only when an obstacle is `due` (and before tick 0)."""
        if self.cfg.detection_radius < 2:
            known = self._known
            self._know({
                label: cell for label, cell in self.field.cells.items()
                if label[0] == "s" and label in known or self._detected(cell)
            })
        elif due:
            self._know(dict(self.field.cells))

    def _decide(self) -> tuple[dict[int, Cell], dict[int, str]]:
        """Phase 3: the flying drones decide in a fresh seeded-random order
        of all drones, each locking the cell it will move to. Returns the
        intents and the actions, by drone id."""
        order = list(self.drones)
        _shuffle(self.rng, order)
        ctx = DecisionContext(area=self.area, blocked_cells=self._blocked, locks=self.locks)
        committed: dict[int, Cell] = {}
        actions: dict[int, str] = {}
        for d in order:
            if d.arrived:
                continue
            if d.bt_attempts:
                intent, action = self._backtrack_decision(d, ctx)
            else:
                intent, action = self._normal_decision(d, ctx)
            if intent != d.current and not self.locks.try_acquire(d.id, intent):
                raise EngineInvariantViolation(
                    f"drone {d.id} was denied the lock of {intent} after finding it safe"
                )
            committed[d.id] = intent
            actions[d.id] = action
        return committed, actions

    def _commit(self, flying: list[Drone], committed: dict[int, Cell]) -> list[Drone]:
        """Phase 4: commit the moves, release the old locks and update the
        routes; returns the drones that landed. No two drones, flying or
        parked, may end the tick on one cell."""
        targets = set(committed.values())
        if len(targets) != len(committed) or not self._parked.keys().isdisjoint(targets):
            cells = [d.current for d in self.drones if d.arrived] + list(committed.values())
            cell, n = Counter(cells).most_common(1)[0]
            raise EngineInvariantViolation(f"{n} drones committed {cell}")
        vacated, entered, landed = [], [], []
        for d in flying:
            nxt = committed[d.id]
            prev = d.current
            record_move(d, nxt)
            if nxt != prev:
                self.locks.release(d.id, prev)
                vacated.append(prev)
                entered.append(nxt)
            if nxt == d.dest and not d.bt_attempts:
                d.arrived = True
                landed.append(d)
            gx, gy, gz = d.dest
            dist = abs(nxt[0] - gx) + abs(nxt[1] - gy) + abs(nxt[2] - gz)
            if dist < d.best_dist:
                d.best_dist = dist
                d.stall_ticks = 0
            else:
                d.stall_ticks += 1
        # Drop every vacated cell before adding the entered ones: a drone may
        # move into a cell another drone left this tick.
        self._drone_cells.difference_update(vacated)
        self._drone_cells.update(entered)
        self._grid.steps(vacated, entered, _DRONE)
        return landed

    def _write_rows(self, drones: list[Drone], actions: dict[int, str]) -> None:
        """Write the trace rows of `drones`, each with its action by id."""
        rows = self._rows
        for d in drones:
            x, y, z = d.current
            mode = "backtrack" if d.bt_attempts else "hover" if d.hover_streak else "normal"
            action = actions[d.id]
            rows[d.id] = f"\t{d.id}\t{mode}\t{x}\t{y}\t{z}\t{action}\t{_NPRED.get(action, 0)}\n"

    def _know(self, known: dict[str, Cell]) -> None:
        """Take `known` (label -> cell) as the known obstacles: move the
        counts of those that stepped, died, spawned, or entered or left
        detection, and rebuild the blocked cells, if any changed."""
        if known != self._known:
            self._grid.move(self._known, known, _OBSTACLE)
            self._known = known
            self._blocked = set(known.values())

    def _detected(self, cell: Cell) -> bool:
        """Is a drone within Chebyshev detection_radius of the cell?

        Probes the drone cells at every offset within the radius; phase 2
        asks only below radius 2, so that is at most 27 probes.
        """
        r = self.cfg.detection_radius
        drone_cells = self._drone_cells
        x, y, z = cell
        span = range(-r, r + 1)
        return any(
            (x + dx, y + dy, z + dz) in drone_cells for dx in span for dy in span for dz in span
        )

    def _normal_decision(self, d: Drone, ctx: DecisionContext) -> tuple[Cell, str]:
        """Greedy step with hazard clearance.

        Prefers a goal-reducing neighbor outside the clearance margin of
        known obstacles and other drones. When every reducing neighbor sits
        in the margin, the drone sidesteps to a safe, clear non-reducing
        cell (unless on cooldown or nearly home), which trades route length
        for separation. Otherwise it takes a reducing cell anyway; an intent
        that fails `cell_is_safe` goes to the avoidance cascade.

        The reducing neighbors are the one step toward the goal on each axis
        where the drone is off it, in x, y, z order: the order `neighbors`
        lists them in, since on each axis at most one direction reduces.
        Those holding a known obstacle or a drone at the start of the tick
        are left out. The drones are read from `_drone_cells`, not from the
        locks: the cells claimed earlier in the tick would change the draw.
        """
        cur = d.current
        dest = d.dest
        x, y, z = cur
        gx, gy, gz = dest
        blocked = ctx.blocked_cells
        drone_cells = self._drone_cells
        reducing = []
        if gx != x:
            n = (x + 1 if gx > x else x - 1, y, z)
            if n not in blocked and n not in drone_cells:
                reducing.append(n)
        if gy != y:
            n = (x, y + 1 if gy > y else y - 1, z)
            if n not in blocked and n not in drone_cells:
                reducing.append(n)
        if gz != z:
            n = (x, y, z + 1 if gz > z else z - 1)
            if n not in blocked and n not in drone_cells:
                reducing.append(n)
        cool = d.sidestep_cooldown
        if cool:
            d.sidestep_cooldown = cool - 1
        if reducing:
            # The flat index of each candidate, as `HazardGrid.at` finds it.
            grid = self._grid
            counts, sx, sy, base = grid.counts, grid.sx, grid.sy, grid.base
            clear = [
                n for n in reducing
                if n == dest or not _in_hazard_margin(counts, n[0] * sx + n[1] * sy + n[2] + base)
            ]
            if clear:
                intent = _choice(self.rng, clear)
            else:
                # Sidestep only off cooldown and not nearly home.
                sidesteps = [] if cool or abs(gx - x) + abs(gy - y) + abs(gz - z) <= 2 else [
                    n for n in neighbors(self.area, cur)
                    if not _in_hazard_margin(counts, n[0] * sx + n[1] * sy + n[2] + base)
                    and cell_is_safe(ctx, d.id, n)
                ]
                if sidesteps:
                    intent = _choice(self.rng, sidesteps)
                    d.sidestep_cooldown = SIDESTEP_COOLDOWN
                else:
                    intent = _choice(self.rng, reducing)
        else:
            intent = cur
        if intent == cur or not cell_is_safe(ctx, d.id, intent):
            return avoid(d, ctx, self.rng, self.cfg.backtrack) or self._backtrack_decision(d, ctx)
        return intent, "advance"

    def _backtrack_decision(self, d: Drone, ctx: DecisionContext) -> tuple[Cell, str]:
        cell = backtrack_step(d, ctx, self.rng)
        backtrack_exit_check(d, self.cfg.backtrack)
        if cell is None:
            return d.current, "bt-hover"
        return cell, "backtrack"

    # -- mission loop ------------------------------------------------------

    def all_arrived(self) -> bool:
        return not self._flying

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
