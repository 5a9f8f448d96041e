"""Grid-adapted RRT and RRT* planners with open-loop execution.

Both planners know the static obstacles and nothing else; the resulting
routes are flown open loop (no locking, conflict checks or avoidance), which is
what makes them collide where the online navigator does not.
"""

from __future__ import annotations

import itertools
import operator
import random

import numpy as np

from .engine import CollisionRecord, SimConfig, SimResult, detect_collisions_ground_truth
from .entities import ObstacleField, step_moving_obstacle
from .world import Area, Cell

GOAL_BIAS = 0.05
REWIRE_RADIUS = 3
DEFAULT_MAX_ITERS = 100_000


class PlanFailure(RuntimeError):
    """Planner exhausted its iteration budget without reaching the goal."""


def _sample_bounds(area: Area) -> tuple[int, int, int, int, int, int]:
    """Each area dimension followed by its bit length, as _sample reads them."""
    dx, dy, dz = area.dims
    return (dx, dx.bit_length(), dy, dy.bit_length(), dz, dz.bit_length())


def _sample(
    bounds: tuple[int, int, int, int, int, int],
    dest: Cell,
    obstacles: set[Cell],
    rng: random.Random,
) -> Cell:
    """dest with probability GOAL_BIAS, else a uniformly drawn free area cell.

    Each coordinate takes getrandbits(bit length of its dimension) until the
    value lies below the dimension. That is how CPython's
    random.Random.randrange(dim) draws, so the cells and the generator's
    state match randrange's exactly, without its argument checks and calls.
    """
    if rng.random() < GOAL_BIAS:
        return dest
    bits = rng.getrandbits
    dx, kx, dy, ky, dz, kz = bounds
    while True:
        x = bits(kx)
        while x >= dx:
            x = bits(kx)
        y = bits(ky)
        while y >= dy:
            y = bits(ky)
        z = bits(kz)
        while z >= dz:
            z = bits(kz)
        c = (x, y, z)
        if c not in obstacles:
            return c


# The planners take areas of up to PLAN_DIM_MAX cells per axis, and a tree
# of larger dims raises ValueError. That bounds both structures below: the
# probe list has at most 314,434 slots (2.5 MB) and the distance table at
# most 127^3 entries, both reached at 64^3, and the farthest distance in the
# area is at most 189, so int16 always holds it.
PLAN_DIM_MAX = 64
# The index keys a cell (x, y, z) as (x * radix + y) * radix + z, with the
# radix derived from the area: its largest dimension plus REWIRE_RADIUS.
# Probing a cell at an offset is then one addition of the offset's key. Two
# cells whose y and z each differ by less than the radix never share a key,
# so keys stay distinct while the indexed cells lie in the area and probes
# reach at most REWIRE_RADIUS beyond it. Queries are area cells too: the
# planners query samples and steps toward them, and a query outside the area
# raises ValueError. within() returns the ball of REWIRE_RADIUS (3), the only
# radius it answers, and is the only query that probes. Each cell's probe
# slot is its key plus a base, in a list over the area padded by
# REWIRE_RADIUS on every side, holding each indexed cell's index and -1
# elsewhere; the base makes the padded corner slot 0, and a probe is one list
# read. Each tree builds its own list: 2,746 slots (22 KB) at 10^3 and 13,826
# (111 KB) at 20^3.
# Per radix: the key and distance of every offset within REWIRE_RADIUS, by
# distance.
_BALLS: dict[int, list[tuple[int, int]]] = {}
# Sorting (index, distance) pairs by the index alone compares ints, not tuples.
_first = operator.itemgetter(0)
# nearest() scans. It keys a cell (x, y, z) of an X x Y x Z area as
# key = (x * (2Y - 1) + y) * (2Z - 1) + z. The difference of two area cells'
# keys then decodes into their per-axis differences alone, so one table per
# area dims, indexed by the key of (X - 1, Y - 1, Z - 1) plus that
# difference, holds their Manhattan distance. The index stores each cell c as
# its offset, that corner's key minus key(c), so the distances from a query
# cell q to all cells are one take of the offsets from the table's view
# starting at key(q), and argmin returns the first of the closest, the
# lowest index. The table has (2X - 1)(2Y - 1)(2Z - 1) entries, int8 while
# X + Y + Z - 3 fits in it and int16 otherwise.
_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _ball(radix: int) -> list[tuple[int, int]]:
    """(key, distance) of the offsets within Manhattan REWIRE_RADIUS, built once per radix."""
    if radix not in _BALLS:
        _BALLS[radix] = [
            ((dx * radix + dy) * radix + sz * (d - abs(dx) - abs(dy)), d)
            for d in range(REWIRE_RADIUS + 1)
            for dx in range(-d, d + 1)
            for dy in range(abs(dx) - d, d - abs(dx) + 1)
            for sz in ((1, -1) if abs(dx) + abs(dy) < d else (1,))
        ]
    return _BALLS[radix]


def _distance_table(dims: tuple[int, int, int]) -> np.ndarray:
    """The scan's distance table for an area, built once per dims."""
    if dims not in _TABLES:
        dtype = np.int8 if sum(dims) - 3 <= np.iinfo(np.int8).max else np.int16
        ax, ay, az = (abs(np.arange(1 - d, d, dtype=dtype)) for d in dims)
        _TABLES[dims] = (ax[:, None, None] + ay[:, None] + az).ravel()
    return _TABLES[dims]


class _NearestIndex:
    """Manhattan nearest-neighbor queries over distinct area cells, which
    PlannerTree.add indexes.

    nearest() scans one array of table offsets; within() probes slots
    indexed by cell key over its ball. Ties go to the lowest index. The area
    has at most PLAN_DIM_MAX cells per axis, and a query cell must lie in it.
    """

    def __init__(self, dims: tuple[int, int, int]):
        if max(dims) > PLAN_DIM_MAX:
            raise ValueError(
                f"the planners take areas of up to {PLAN_DIM_MAX} cells a side, got dims {dims!r}"
            )
        self._dims = dims
        self._radix = r = max(dims) + REWIRE_RADIUS
        self._ball = _ball(r)
        self._ry = 2 * dims[1] - 1
        self._rz = 2 * dims[2] - 1
        self._table = _distance_table(dims)
        self._corner = ((dims[0] - 1) * self._ry + dims[1] - 1) * self._rz + dims[2] - 1
        self._offsets = np.empty(1024, dtype=np.int64)
        self._n = 0
        pad = REWIRE_RADIUS
        self._base = (pad * r + pad) * r + pad
        top = ((dims[0] - 1 + pad) * r + dims[1] - 1 + pad) * r + dims[2] - 1 + pad
        self._slots = [-1] * (top + self._base + 1)

    def nearest(self, cell: Cell) -> int:
        """Lowest index among the closest cells."""
        x, y, z = cell
        dx, dy, dz = self._dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"cell {cell!r} lies outside the area {self._dims!r}")
        key = (x * self._ry + y) * self._rz + z
        return int(self._table[key:].take(self._offsets[: self._n]).argmin())

    def within(self, cell: Cell) -> list[tuple[int, int]]:
        """(index, distance) of the cells within Manhattan REWIRE_RADIUS, by index."""
        x, y, z = cell
        dx, dy, dz = self._dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"cell {cell!r} lies outside the area {self._dims!r}")
        r = self._radix
        k = (x * r + y) * r + z + self._base
        slots = self._slots
        out = [(i, d) for o, d in self._ball if (i := slots[k + o]) >= 0]
        out.sort(key=_first)
        return out


class PlannerTree(_NearestIndex):
    """Search tree over distinct area cells, indexed for nearest-node queries.

    The root is the first cell added. Each node keeps its cell and its
    parent's index; a planner that needs more per node keeps it itself.
    """

    def __init__(self, dims: tuple[int, int, int]):
        super().__init__(dims)
        self.cells: list[Cell] = []
        self.parent: list[int] = []
        self.index: dict[Cell, int] = {}

    def add(self, cell: Cell, parent: int) -> int:
        """Add cell as a child of node parent (-1 for the root), and return its index."""
        x, y, z = cell
        dx, dy, dz = self._dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"cell {cell!r} lies outside the area {self._dims!r}")
        r = self._radix
        k = (x * r + y) * r + z + self._base
        slots = self._slots
        if slots[k] >= 0:
            raise ValueError(f"cell {cell!r} is already indexed")
        n = self._n
        if n == len(self._offsets):
            self._offsets = np.concatenate([self._offsets, np.empty_like(self._offsets)])
        self._offsets[n] = self._corner - (x * self._ry + y) * self._rz - z
        slots[k] = n
        self._n = n + 1
        self.cells.append(cell)
        self.parent.append(parent)
        self.index[cell] = n
        return n

    def path_to(self, i: int) -> list[Cell]:
        """The cells from the root to node i along the parent links."""
        route: list[Cell] = []
        cells, parent = self.cells, self.parent
        while i >= 0:
            route.append(cells[i])
            i = parent[i]
        route.reverse()
        return route


def _step_toward(frm: Cell, to: Cell, rng: random.Random) -> Cell:
    """One axis step from frm toward to, on an axis drawn among those that differ.

    The axis is drawn as CPython's rng.choice draws from the list of the
    steps on the differing axes in x, y, z order: getrandbits(bit length of
    their count) until the value lies below the count. With one differing
    axis that still takes draws, until a 0 bit.
    """
    x, y, z = frm
    tx, ty, tz = to
    on_x = x != tx
    on_y = y != ty
    n = on_x + on_y + (z != tz)
    k = n.bit_length()
    bits = rng.getrandbits
    r = bits(k)
    while r >= n:
        r = bits(k)
    if on_x:
        if not r:
            return (x + 1 if tx > x else x - 1, y, z)
        r -= 1
    if on_y and not r:
        return (x, y + 1 if ty > y else y - 1, z)
    return (x, y, z + 1 if tz > z else z - 1)


def _straight_edge(frm: Cell, to: Cell, obstacles: set[Cell]) -> list[Cell] | None:
    """Obstacle-free axis-by-axis walk from frm to to, trying axis orders."""
    for order in itertools.permutations(range(3)):
        path = []
        cur = list(frm)
        ok = True
        for k in order:
            step = 1 if to[k] > cur[k] else -1
            while cur[k] != to[k]:
                cur[k] += step
                cell = tuple(cur)
                if cell in obstacles:
                    ok = False
                    break
                path.append(cell)
            if not ok:
                break
        if ok:
            return path  # excludes frm, ends at to
    return None


def _checked_obstacles(
    start: Cell, dest: Cell, static_obstacles: list[Cell], area: Area
) -> set[Cell]:
    """The static obstacles as a set, once start and dest are checked to be
    distinct free cells of the area; raises ValueError otherwise."""
    obstacles = set(static_obstacles)
    if start == dest or start in obstacles or dest in obstacles:
        raise ValueError("start and dest must be distinct free cells")
    if start not in area or dest not in area:
        raise ValueError("start and dest must lie in the area")
    return obstacles


def rrt_plan(
    start: Cell,
    dest: Cell,
    static_obstacles: list[Cell],
    area: Area,
    rng: random.Random,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[Cell]:
    """Single-step RRT over the grid; returns the route start..dest."""
    obstacles = _checked_obstacles(start, dest, static_obstacles, area)
    tree = PlannerTree(area.dims)
    tree.add(start, -1)
    bounds = _sample_bounds(area)
    cells, index = tree.cells, tree.index
    for _ in range(max_iters):
        sample = _sample(bounds, dest, obstacles, rng)
        # A sample on the tree is its own nearest cell: no step to take.
        if sample in index:
            continue
        near = tree.nearest(sample)
        # One step from a tree cell toward an area cell stays in the area.
        new = _step_toward(cells[near], sample, rng)
        if new in obstacles or new in index:
            continue
        i = tree.add(new, near)
        if new == dest:
            # Every edge is one step, so the nodes to i are the route.
            return tree.path_to(i)
    raise PlanFailure(f"no route to {dest} within {max_iters} iterations")


def _propagate_cost(
    children: list[set[int]], cost: list[int], edge: list[list[Cell]], root: int
) -> None:
    """Recompute the cost of every node below root from its edge's length."""
    stack = [root]
    while stack:
        i = stack.pop()
        for c in children[i]:
            cost[c] = cost[i] + len(edge[c])
            stack.append(c)


def _joined_edges(parent: list[int], edge: list[list[Cell]], i: int) -> list[Cell]:
    """The route from the root to node i: the edges along the parent links, joined."""
    chunks: list[list[Cell]] = []
    while i >= 0:
        chunks.append(edge[i])
        i = parent[i]
    route: list[Cell] = []
    for chunk in reversed(chunks):
        route.extend(chunk)
    return route


def rrt_star_plan(
    start: Cell,
    dest: Cell,
    static_obstacles: list[Cell],
    area: Area,
    rng: random.Random,
    max_iters: int = DEFAULT_MAX_ITERS,
    refine_iters: int = 2_000,
) -> list[Cell]:
    """RRT with choose-parent and rewiring in a Manhattan-radius-3 ball.

    After the goal first connects, growth continues for refine_iters more
    iterations so rewiring can shorten the incumbent path.
    """
    obstacles = _checked_obstacles(start, dest, static_obstacles, area)
    tree = PlannerTree(area.dims)
    tree.add(start, -1)
    bounds = _sample_bounds(area)
    cells, parent, index = tree.cells, tree.parent, tree.index
    # Per node: its cost from the root, the axis-step expansion of the
    # edge from its parent (without the parent's cell), and its children.
    cost = [0]
    edge = [[start]]
    children: list[set[int]] = [set()]
    goal_index = -1
    budget = max_iters
    it = 0
    while it < budget:
        it += 1
        sample = _sample(bounds, dest, obstacles, rng)
        if sample in index:
            continue
        near = tree.nearest(sample)
        new = _step_toward(cells[near], sample, rng)
        if new in obstacles or new in index:
            continue

        # Choose-parent: the neighbour with the least cost through it and
        # an obstacle-free edge, ties to the lower own cost and then the
        # lower index. near is one step away, so it never beats its own
        # cost + 1.
        neighborhood = tree.within(new)
        best_parent, best_cost, best_edge = near, cost[near] + 1, [new]
        better = [
            (c + d, c, j) for j, d in neighborhood if (c := cost[j]) + d < best_cost
        ]
        better.sort()
        for through, _, j in better:
            path = _straight_edge(cells[j], new, obstacles)
            if path is not None:
                best_parent, best_cost, best_edge = j, through, path
                break
        i = tree.add(new, best_parent)
        cost.append(best_cost)
        edge.append(best_edge)
        children.append(set())
        children[best_parent].add(i)

        # The root costs 0, so it is never rewired and always has a parent here.
        for j, d in neighborhood:
            if best_cost + d < cost[j] and j != near:
                path = _straight_edge(new, cells[j], obstacles)
                if path is None:
                    continue
                children[parent[j]].discard(j)
                parent[j] = i
                children[i].add(j)
                edge[j] = path
                cost[j] = best_cost + d
                _propagate_cost(children, cost, edge, j)

        if new == dest and goal_index < 0:
            goal_index = i
            budget = min(max_iters, it + refine_iters)
    if goal_index < 0:
        raise PlanFailure(f"no route to {dest} within {max_iters} iterations")
    return _joined_edges(parent, edge, goal_index)


def execute_open_loop(routes: dict[int, list[Cell]], cfg: SimConfig) -> SimResult:
    """Fly precomputed routes simultaneously, one step per tick, no safeguards.

    Moving obstacles wander per their cadence and do not dodge drones; the
    same ground-truth collision scan as the engine's records the damage.
    Raises ConfigError for a config that fails `SimConfig.validate`.

    A tick pays for the drones still flying and the obstacles due to step,
    as the engine's does: the obstacles are an `ObstacleField`, which steps
    the due ones in id order and keeps the scan's obstacle map. A drone
    whose route has ended joins the scan's parked map (cell -> id); if
    another such drone holds that cell, it stays in `before` and `after`,
    on its cell. The records equal those of one scan over every drone. The
    scan and `step_moving_obstacle` are looked up in this module's globals
    at each call, where a tracer or a tick clock may wrap them.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    area = cfg.area()
    field = ObstacleField(cfg.static_obstacles, cfg.moving_obstacles)
    # Drones by the tick their route ends on, from which they stay put.
    ends: dict[int, list[int]] = {}
    for i, r in routes.items():
        ends.setdefault(len(r) - 1, []).append(i)
    total_ticks = max(ends, default=0)
    collisions: list[CollisionRecord] = []
    flying = list(routes.items())
    positions = {i: r[0] for i, r in routes.items()}
    parked: dict[Cell, int] = {}
    # Drones whose route ended on a cell another parked drone holds.
    stuck: dict[int, Cell] = {}
    # Obstacles that do not dodge drones read no drone cells.
    no_drones: frozenset[Cell] = frozenset()
    for tick in range(total_ticks):
        ended = ends.pop(tick, None)
        if ended:
            for i in ended:
                cell = routes[i][-1]
                if cell in parked:
                    stuck[i] = cell
                else:
                    parked[cell] = i
                    del positions[i]
            flying = [(i, r) for i, r in flying if len(r) - 1 > tick]
        before = positions
        field.step(tick, step_moving_obstacle, rng, area, no_drones, False)
        positions = {i: r[tick + 1] for i, r in flying}
        if stuck:
            positions.update(stuck)
        collisions += detect_collisions_ground_truth(
            before, positions, field.at, tick, parked
        )
    return SimResult(
        routes={i: list(r) for i, r in routes.items()},
        collisions=collisions,
        ticks=total_ticks,
        wall_ms=0.0,
        arrived={i: True for i in routes},
        timed_out=False,
    )
