"""Grid-adapted RRT and RRT* planners with open-loop execution.

Both planners know the static obstacles and nothing else; the resulting
routes are flown open loop (no locking, prediction, or avoidance), which is
what makes them collide where the online navigator does not.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .engine import CollisionRecord, SimConfig, SimResult, detect_collisions_ground_truth
from .entities import MovingObstacle, step_moving_obstacle
from .world import Area, Cell

GOAL_BIAS = 0.05
REWIRE_RADIUS = 3
DEFAULT_MAX_ITERS = 100_000


class PlanFailure(RuntimeError):
    """Planner exhausted its iteration budget without reaching the goal."""


@dataclass
class PlannerTree:
    """Search tree over grid cells; root is the start cell."""

    cells: list[Cell] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    cost: list[int] = field(default_factory=list)
    # Axis-step expansion of the edge from parent[i] to i (excludes parent cell).
    edge: list[list[Cell]] = field(default_factory=list)
    index: dict[Cell, int] = field(default_factory=dict)
    children: list[set[int]] = field(default_factory=list)

    def add(self, cell: Cell, parent: int, cost: int, edge: list[Cell]) -> int:
        i = len(self.cells)
        self.cells.append(cell)
        self.parent.append(parent)
        self.cost.append(cost)
        self.edge.append(edge)
        self.children.append(set())
        self.index[cell] = i
        if parent >= 0:
            self.children[parent].add(i)
        return i

    def path_to(self, i: int) -> list[Cell]:
        chunks: list[list[Cell]] = []
        while i >= 0:
            chunks.append(self.edge[i])
            i = self.parent[i]
        route: list[Cell] = []
        for chunk in reversed(chunks):
            route.extend(chunk)
        return route


def _sample(area: Area, dest: Cell, obstacles: set[Cell], rng: random.Random) -> Cell:
    if rng.random() < GOAL_BIAS:
        return dest
    while True:
        c = (
            rng.randrange(area.dim_x),
            rng.randrange(area.dim_y),
            rng.randrange(area.dim_z),
        )
        if c not in obstacles:
            return c


# The index keys a cell (x, y, z) as (x * radix + y) * radix + z, with the
# radix derived from the area: its largest dimension plus _REACH. Probing a
# cell at an offset is then one addition of the offset's key. Two cells whose
# y and z each differ by less than the radix never share a key, and every
# key a probe makes lies in (-radix**3, radix**3). So keys stay distinct
# while the indexed cells lie in the area and probes reach at most _REACH
# beyond it, and they stay one-digit ints (below 2**30) while the radix is
# at most 2**10. Queries outside the area, or probes farther out, go to the
# numpy scan instead.
_REACH = 16
# nearest() probes shells while their cells total at most n / _PROBE_SHARE
# for n indexed cells, plus _SCAN_PROBES once the cells fill 1 / _SCAN_PROBES
# of the area, and otherwise scans them all with numpy. A scan costs about
# _SCAN_PROBES probes plus one per 30 cells, so a query that finds nothing in
# its budget costs at most about two scans. In a sparser tree the first hit
# lies more than _SCAN_PROBES probes out on average, so the scan goes first.
# RRT*'s queries mostly hit within two cells; plain RRT's mostly lie farther.
_PROBE_SHARE = 32
_SCAN_PROBES = 48
# Per radix: the offset keys at each Manhattan distance 0.._REACH, and for
# each radius the key and distance of every offset within it.
_SHELLS: dict[int, list[list[int]]] = {}
_BALLS: dict[tuple[int, int], list[tuple[int, int]]] = {}
# Sorting (index, distance) pairs by the index alone compares ints, not tuples.
_first = operator.itemgetter(0)


def _shells(radix: int) -> list[list[int]]:
    """Offset keys by Manhattan distance, out to _REACH, built once per radix."""
    if radix not in _SHELLS:
        _SHELLS[radix] = [
            [
                (dx * radix + dy) * radix + sz * (d - abs(dx) - abs(dy))
                for dx in range(-d, d + 1)
                for dy in range(abs(dx) - d, d - abs(dx) + 1)
                for sz in ((1, -1) if abs(dx) + abs(dy) < d else (1,))
            ]
            for d in range(_REACH + 1)
        ]
    return _SHELLS[radix]


def _ball(radix: int, radius: int) -> list[tuple[int, int]]:
    """(key, distance) of the offsets within Manhattan radius."""
    if (radix, radius) not in _BALLS:
        shells = _shells(radix)[: radius + 1]
        _BALLS[radix, radius] = [(o, d) for d, shell in enumerate(shells) for o in shell]
    return _BALLS[radix, radius]


class _NearestIndex:
    """Manhattan nearest-neighbor over a growing set of distinct area cells.

    A cell-key -> index dict answers queries by probing Manhattan shells
    around the query cell; one coordinate array per axis backs the linear
    scan for queries the probes cannot answer. Ties go to the lowest index.
    """

    def __init__(self, dims: tuple[int, int, int], capacity: int = 1024):
        self._dims = dims
        self._volume = dims[0] * dims[1] * dims[2]
        self._radix = max(dims) + _REACH
        self._outer_shells = _shells(self._radix)[1:]
        self._axes = [np.empty(capacity, dtype=np.int64) for _ in range(3)]
        self._n = 0
        self._index: dict[int, int] = {}

    def add(self, cell: Cell) -> None:
        x, y, z = cell
        dx, dy, dz = self._dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"cell {cell!r} lies outside the area {self._dims!r}")
        n = self._n
        if n == len(self._axes[0]):
            self._axes = [np.concatenate([a, np.empty_like(a)]) for a in self._axes]
        xs, ys, zs = self._axes
        xs[n] = x
        ys[n] = y
        zs[n] = z
        r = self._radix
        self._index.setdefault((x * r + y) * r + z, n)
        self._n = n + 1

    def _distances(self, cell: Cell) -> np.ndarray:
        n = self._n
        xs, ys, zs = self._axes
        x, y, z = cell
        return abs(xs[:n] - x) + abs(ys[:n] - y) + abs(zs[:n] - z)

    def nearest(self, cell: Cell) -> int:
        """Lowest index among the closest cells."""
        x, y, z = cell
        dx, dy, dz = self._dims
        if 0 <= x < dx and 0 <= y < dy and 0 <= z < dz:
            r = self._radix
            key = (x * r + y) * r + z
            get = self._index.get
            i = get(key)
            if i is not None:
                return i
            n = self._n
            budget = n // _PROBE_SHARE
            if n * _SCAN_PROBES >= self._volume:
                budget += _SCAN_PROBES
            probed = 1
            for shell in self._outer_shells:
                probed += len(shell)
                if probed > budget:
                    break
                hits = [i for o in shell if (i := get(key + o)) is not None]
                if hits:
                    return min(hits)
        return int(self._distances(cell).argmin())

    def within(self, cell: Cell, radius: int) -> list[tuple[int, int]]:
        """(index, distance) of the cells within Manhattan radius, by index."""
        x, y, z = cell
        dx, dy, dz = self._dims
        if 0 <= x < dx and 0 <= y < dy and 0 <= z < dz and radius <= _REACH:
            r = self._radix
            key = (x * r + y) * r + z
            get = self._index.get
            out = [(i, d) for o, d in _ball(r, radius) if (i := get(key + o)) is not None]
            out.sort(key=_first)
            return out
        dist = self._distances(cell)
        found = np.flatnonzero(dist <= radius)
        return list(zip(found.tolist(), dist[found].tolist()))


def _step_toward(frm: Cell, to: Cell, rng: random.Random) -> Cell:
    """One axis step from frm toward to, on an axis drawn among those that differ."""
    x, y, z = frm
    tx, ty, tz = to
    steps = []
    if x != tx:
        steps.append((x + 1 if tx > x else x - 1, y, z))
    if y != ty:
        steps.append((x, y + 1 if ty > y else y - 1, z))
    if z != tz:
        steps.append((x, y, z + 1 if tz > z else z - 1))
    return rng.choice(steps)


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


def rrt_plan(
    start: Cell,
    dest: Cell,
    static_obstacles: list[Cell],
    area: Area,
    rng: random.Random,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[Cell]:
    """Single-step RRT over the grid; returns the route start..dest."""
    obstacles = set(static_obstacles)
    if start == dest or start in obstacles or dest in obstacles:
        raise ValueError("start and dest must be distinct free cells")
    if start not in area or dest not in area:
        raise ValueError("start and dest must lie in the area")
    tree = PlannerTree()
    nn = _NearestIndex((area.dim_x, area.dim_y, area.dim_z))
    tree.add(start, -1, 0, [start])
    nn.add(start)
    index = tree.index
    for _ in range(max_iters):
        sample = _sample(area, dest, obstacles, rng)
        # A sample on the tree is its own nearest cell: no step to take.
        if sample in index:
            continue
        near = nn.nearest(sample)
        # One step from a tree cell toward an area cell stays in the area.
        new = _step_toward(tree.cells[near], sample, rng)
        if new in obstacles or new in index:
            continue
        i = tree.add(new, near, tree.cost[near] + 1, [new])
        nn.add(new)
        if new == dest:
            return tree.path_to(i)
    raise PlanFailure(f"no route to {dest} within {max_iters} iterations")


def _propagate_cost(tree: PlannerTree, root: int) -> None:
    stack = [root]
    while stack:
        i = stack.pop()
        for c in tree.children[i]:
            tree.cost[c] = tree.cost[i] + len(tree.edge[c])
            stack.append(c)


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
    obstacles = set(static_obstacles)
    if start == dest or start in obstacles or dest in obstacles:
        raise ValueError("start and dest must be distinct free cells")
    if start not in area or dest not in area:
        raise ValueError("start and dest must lie in the area")
    tree = PlannerTree()
    nn = _NearestIndex((area.dim_x, area.dim_y, area.dim_z))
    tree.add(start, -1, 0, [start])
    nn.add(start)
    cells, cost, index = tree.cells, tree.cost, tree.index
    goal_index = -1
    budget = max_iters
    it = 0
    while it < budget:
        it += 1
        sample = _sample(area, dest, obstacles, rng)
        if sample in index:
            continue
        near = nn.nearest(sample)
        new = _step_toward(cells[near], sample, rng)
        if new in obstacles or new in index:
            continue

        # Choose-parent: the neighbour with the least cost through it and an
        # obstacle-free edge, ties to the lower own cost and then the lower
        # index. near is one step away, so it never beats its own cost + 1.
        neighborhood = nn.within(new, REWIRE_RADIUS)
        best_parent, best_cost, best_edge = near, cost[near] + 1, [new]
        better = [
            (c + d, c, j) for j, d in neighborhood if (c := cost[j]) + d < best_cost
        ]
        better.sort()
        for through, _, j in better:
            edge = _straight_edge(cells[j], new, obstacles)
            if edge is not None:
                best_parent, best_cost, best_edge = j, through, edge
                break
        i = tree.add(new, best_parent, best_cost, best_edge)
        nn.add(new)

        for j, d in neighborhood:
            if best_cost + d < cost[j] and j != near:
                edge = _straight_edge(new, cells[j], obstacles)
                if edge is None:
                    continue
                old_parent = tree.parent[j]
                if old_parent >= 0:
                    tree.children[old_parent].discard(j)
                tree.parent[j] = i
                tree.children[i].add(j)
                tree.edge[j] = edge
                cost[j] = best_cost + d
                _propagate_cost(tree, j)

        if new == dest and goal_index < 0:
            goal_index = i
            budget = min(max_iters, it + refine_iters)
    if goal_index < 0:
        raise PlanFailure(f"no route to {dest} within {max_iters} iterations")
    return tree.path_to(goal_index)


def execute_open_loop(routes: dict[int, list[Cell]], cfg: SimConfig) -> SimResult:
    """Fly precomputed routes simultaneously, one step per tick, no safeguards.

    Moving obstacles wander per their cadence and do not dodge drones; the
    same ground-truth collision scan as the engine's records the damage.
    """
    rng = random.Random(cfg.seed)
    area = cfg.area()
    movings = [
        MovingObstacle(id=i, cell=c, cadence=cad, spawn_tick=sp)
        for i, (c, cad, sp) in enumerate(cfg.moving_obstacles)
    ]
    statics = {f"s{i}": c for i, c in enumerate(cfg.static_obstacles)}
    total_ticks = max((len(r) - 1 for r in routes.values()), default=0)
    collisions: list[CollisionRecord] = []
    positions = {i: r[0] for i, r in routes.items()}
    for tick in range(total_ticks):
        before = dict(positions)
        for o in movings:
            step_moving_obstacle(o, tick, rng, area, set(), avoid_drones=False)
        for i, r in routes.items():
            positions[i] = r[min(tick + 1, len(r) - 1)]
        obstacle_cells = dict(statics)
        for o in movings:
            if o.alive and tick >= o.spawn_tick:
                obstacle_cells[f"m{o.id}"] = o.cell
        collisions += detect_collisions_ground_truth(
            before, positions, obstacle_cells, tick
        )
    return SimResult(
        routes={i: list(r) for i, r in routes.items()},
        collisions=collisions,
        ticks=total_ticks,
        wall_ms=0.0,
        arrived={i: True for i in routes},
        timed_out=False,
    )
