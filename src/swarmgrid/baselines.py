"""Grid-adapted RRT and RRT* planners with open-loop execution.

Both planners know the static obstacles and nothing else; the resulting
routes are flown open loop (no locking, conflict checks or avoidance), which is
what makes them collide where the online navigator does not.
"""

from __future__ import annotations

import itertools
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
# RRT* wires its nodes WIRE_BLOCK at a time, each block from one within().
WIRE_BLOCK = 1024
# The index keys a cell (x, y, z) as (x * radix + y) * radix + z, with the
# radix derived from the area: its largest dimension plus REWIRE_RADIUS.
# Probing a cell at an offset is then one addition of the offset's key. Two
# cells whose y and z each differ by less than the radix never share a key,
# so keys stay distinct while the indexed cells lie in the area and probes
# reach at most REWIRE_RADIUS beyond it. Each cell's probe slot is its key
# plus a base, in a list over the area padded by REWIRE_RADIUS on every
# side, holding each indexed cell's index and -1 elsewhere; the base makes
# the padded corner slot 0. Each tree builds its own list: 2,746 slots
# (22 KB) at 10^3 and 13,826 (111 KB) at 20^3.
# RRT* grows its whole tree first and then wires it, so within() answers a
# block of nodes lo <= i < hi at once: for each, the nodes j < i in its ball
# of REWIRE_RADIUS (3), the only radius it answers. It decodes the slot of
# every node before hi from its scan offset, builds an int32 array of the
# list's length holding those nodes at their slots, and reads the array at
# every block node's slot plus every ball key in one numpy gather. A block
# of WIRE_BLOCK nodes gathers 1024 x 63 int32 slots through an index of the
# same shape, 258 KB each, plus the array (55 KB at 20^3, 1.26 MB at 64^3)
# and the answer's lists. Wiring stops once the goal costs its distance
# from the root (see rrt_star_plan), and the first block ends at the goal,
# so most plans ask for one block of up to the goal's index. add() reads
# the list for its duplicate test; within() reads only its length.
# Per radix: the key and distance of every offset within REWIRE_RADIUS, by
# distance, as two int32 arrays.
_BALLS: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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


def _ball(radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and distances of the offsets within Manhattan REWIRE_RADIUS, built once per radix."""
    if radix not in _BALLS:
        ball = [
            ((dx * radix + dy) * radix + sz * (d - abs(dx) - abs(dy)), d)
            for d in range(REWIRE_RADIUS + 1)
            for dx in range(-d, d + 1)
            for dy in range(abs(dx) - d, d - abs(dx) + 1)
            for sz in ((1, -1) if abs(dx) + abs(dy) < d else (1,))
        ]
        _BALLS[radix] = tuple(np.array(ball, dtype=np.int32).T.copy())
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

    nearest() scans one array of table offsets, and ties go to the lowest
    index; within() gathers the slots, indexed by cell key, over a block of
    nodes' balls. The area has at most PLAN_DIM_MAX cells per axis, and a
    query cell must lie in it.
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

    def within(self, lo: int, hi: int) -> tuple[list[int], list[int], list[int]]:
        """For each node i with lo <= i < hi, the nodes j < i within
        Manhattan REWIRE_RADIUS of it, and their distances.

        Returns the js and the distances as two flat lists, each node's
        entries in ball order, and each node's end in them.
        """
        # Only nodes before hi can answer. Each one's scan offset decodes
        # into its cell and so into its probe slot's index in the array.
        key = self._corner - self._offsets[:hi]
        x, yz = np.divmod(key, self._ry * self._rz)
        y, z = np.divmod(yz, self._rz)
        r = self._radix
        keys = (x * r + y) * r + z + self._base
        slots = np.full(len(self._slots), -1, dtype=np.int32)
        slots[keys] = np.arange(hi, dtype=np.int32)
        ball_keys, ball_dists = self._ball
        hits = slots[keys[lo:hi, None] + ball_keys]
        found = (hits >= 0) & (hits < np.arange(lo, hi)[:, None])
        # Flat positions in hits, row by row: a boolean index would be slower.
        at = np.flatnonzero(found)
        return (
            hits.ravel().take(at).tolist(),
            ball_dists.take(at % ball_dists.size).tolist(),
            np.count_nonzero(found, axis=1).cumsum().tolist(),
        )


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


def _grow(
    tree: PlannerTree,
    dest: Cell,
    obstacles: set[Cell],
    bounds: tuple[int, int, int, int, int, int],
    rng: random.Random,
    iters: int,
) -> tuple[int, int]:
    """Run up to iters single-step RRT iterations on tree, stopping after the
    one that adds dest; returns dest's node (-1 if none added it) and the
    iterations run.

    Each new cell joins as the child of its nearest node. The draws, and so
    the cells and their indexes, depend on nothing but the cells the tree
    holds, which is what lets RRT* wire its tree afterwards.
    """
    cells, index = tree.cells, tree.index
    for it in range(1, iters + 1):
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
            return i, it
    return -1, iters


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
    goal, _ = _grow(tree, dest, obstacles, _sample_bounds(area), rng, max_iters)
    if goal < 0:
        raise PlanFailure(f"no route to {dest} within {max_iters} iterations")
    # Every edge is one step, so the nodes to the goal are the route.
    return tree.path_to(goal)


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
    iterations, so that the draws stay those of a planner that rewires as
    it grows.

    No draw depends on a cost, an edge or a parent, so the tree grows as
    RRT grows it and is wired afterwards, node by node in index order, each
    node against the nodes before it: the routes and draws are those of
    choosing each node's parent and rewiring its ball as it is added. The
    refine phase's nodes are wired only until the goal costs its Manhattan
    distance from the root, after which no node can change its route; a
    goal that never does has every node wired.
    """
    obstacles = _checked_obstacles(start, dest, static_obstacles, area)
    tree = PlannerTree(area.dims)
    tree.add(start, -1)
    bounds = _sample_bounds(area)
    goal, it = _grow(tree, dest, obstacles, bounds, rng, max_iters)
    if goal < 0:
        raise PlanFailure(f"no route to {dest} within {max_iters} iterations")
    # dest is on the tree, so this runs every iteration it is given.
    _grow(tree, dest, obstacles, bounds, rng, min(refine_iters, max_iters - it))

    cells, parent = tree.cells, tree.parent
    n = len(cells)
    # Per node wired so far: its cost from the root, the axis-step
    # expansion of the edge from its parent (without the parent's cell),
    # and its children. Each node's parent is its nearest node until it is
    # wired.
    cost = [0]
    edge = [[start]]
    children: list[set[int]] = [set()]
    bound = abs(dest[0] - start[0]) + abs(dest[1] - start[1]) + abs(dest[2] - start[2])
    lo = 1
    while lo < n:
        # Until the goal is wired, a block ends at the goal, where wiring
        # most often stops.
        hi = min(lo + WIRE_BLOCK, goal + 1 if lo <= goal else n)
        js, ds, ends = tree.within(lo, hi)
        begin = 0
        for i, end in zip(range(lo, hi), ends):
            ball_js, ball_ds = js[begin:end], ds[begin:end]
            begin = end
            new = cells[i]
            near = parent[i]

            # Choose-parent: the neighbour with the least cost through it
            # and an obstacle-free edge, ties to the lower own cost and then
            # the lower index. near is one step away, so it never beats its
            # own cost + 1.
            best_parent, best_cost, best_edge = near, cost[near] + 1, [new]
            better = [
                (c + d, c, j) for j, d in zip(ball_js, ball_ds) if (c := cost[j]) + d < best_cost
            ]
            better.sort()
            for through, _, j in better:
                path = _straight_edge(cells[j], new, obstacles)
                if path is not None:
                    best_parent, best_cost, best_edge = j, through, path
                    break
            parent[i] = best_parent
            cost.append(best_cost)
            edge.append(best_edge)
            children.append(set())
            children[best_parent].add(i)

            # Rewiring, by neighbour index. Costs only fall while node i
            # rewires, so a neighbour that fails the test at first never
            # passes it later. The root costs 0, so it is never rewired and
            # always has a parent here.
            rewire = [(j, d) for j, d in zip(ball_js, ball_ds) if best_cost + d < cost[j]]
            rewire.sort()
            for j, d in rewire:
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

            # Every edge is an axis walk as long as the Manhattan distance
            # between its ends, so every node costs at least its distance
            # from the root, its bound, and costs only fall. A node j at
            # its bound fails every later rewire test, since best_cost + d
            # >= bound(i) + d >= bound(j), and its parent p is at its own,
            # since cost[j] = cost[p] + |p - j| and bound(j) <= bound(p) +
            # |p - j|. So once the goal is at its bound, no later node
            # changes a parent or an edge on its route.
            if i >= goal and cost[goal] == bound:
                return _joined_edges(parent, edge, goal)
        lo = hi
    return _joined_edges(parent, edge, goal)


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
