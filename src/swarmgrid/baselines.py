"""Grid-adapted RRT and RRT* planners with open-loop execution.

Both planners know the static obstacles and nothing else; the resulting
routes are flown open loop (no locking, prediction, or avoidance), which is
what makes them collide where the online navigator does not.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .engine import CollisionRecord, SimConfig, SimResult, detect_collisions_ground_truth
from .entities import MovingObstacle, step_moving_obstacle
from .world import Area, Cell, manhattan

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


# Cells are keyed by one int, (x * _M + y) * _M + z, so that probing a cell
# at an offset is one addition of the offset's key. Keys stay distinct while
# every coordinate, the probed ones included, lies within +-_M / 2.
_M = 1 << 20
# nearest() probes shells while their cells total at most n / _PROBE_SHARE
# for n indexed cells, and otherwise scans them all with numpy. One probe
# costs about what the scan spends on 30 cells, so a query that finds
# nothing in its budget costs at most about two scans. RRT*'s refinement
# queries mostly hit within two cells; plain RRT's mostly lie farther out.
_PROBE_SHARE = 32
_SHELLS: list[list[int]] = [[0]]
_BALLS: dict[int, list[int]] = {}


def _key(cell: Cell) -> int:
    return (cell[0] * _M + cell[1]) * _M + cell[2]


def _shell(d: int) -> list[int]:
    """Keys of the offsets at Manhattan distance exactly d, built on first use."""
    while len(_SHELLS) <= d:
        k = len(_SHELLS)
        _SHELLS.append([
            _key((dx, dy, sz * (k - abs(dx) - abs(dy))))
            for dx in range(-k, k + 1)
            for dy in range(abs(dx) - k, k - abs(dx) + 1)
            for sz in ((1, -1) if abs(dx) + abs(dy) < k else (1,))
        ])
    return _SHELLS[d]


def _ball(radius: int) -> list[int]:
    """Keys of the offsets within Manhattan radius, built on first use."""
    if radius not in _BALLS:
        _BALLS[radius] = [o for d in range(radius + 1) for o in _shell(d)]
    return _BALLS[radius]


class _NearestIndex:
    """Manhattan nearest-neighbor over a growing set of distinct cells.

    A cell-key -> index dict answers queries by probing Manhattan shells
    around the query cell; one coordinate array per axis backs the linear
    scan that nearest() falls back to. Ties go to the lowest index.
    """

    def __init__(self, capacity: int):
        self._axes = [np.empty(capacity, dtype=np.int64) for _ in range(3)]
        self._n = 0
        self._index: dict[int, int] = {}

    def add(self, cell: Cell) -> None:
        n = self._n
        if n == len(self._axes[0]):
            self._axes = [np.concatenate([a, np.empty_like(a)]) for a in self._axes]
        xs, ys, zs = self._axes
        xs[n], ys[n], zs[n] = cell
        self._index.setdefault(_key(cell), n)
        self._n = n + 1

    def nearest(self, cell: Cell) -> int:
        """Lowest index among the closest cells."""
        get = self._index.get
        key = _key(cell)
        budget = self._n // _PROBE_SHARE
        probed = 0
        d = 0
        while True:
            shell = _shell(d)
            probed += len(shell)
            if probed > budget:
                n = self._n
                xs, ys, zs = self._axes
                x, y, z = cell
                dist = abs(xs[:n] - x) + abs(ys[:n] - y) + abs(zs[:n] - z)
                return int(dist.argmin())
            hits = [i for i in map(get, [key + o for o in shell]) if i is not None]
            if hits:
                return min(hits)
            d += 1

    def within(self, cell: Cell, radius: int) -> list[int]:
        """Indices of the cells within Manhattan radius, ascending."""
        get = self._index.get
        key = _key(cell)
        out = [i for i in map(get, [key + o for o in _ball(radius)]) if i is not None]
        out.sort()
        return out


def _step_toward(frm: Cell, to: Cell, rng: random.Random) -> Cell:
    dims = [k for k in range(3) if frm[k] != to[k]]
    k = rng.choice(dims)
    out = list(frm)
    out[k] += 1 if to[k] > frm[k] else -1
    return tuple(out)  # type: ignore[return-value]


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
    tree = PlannerTree()
    nn = _NearestIndex(1024)
    tree.add(start, -1, 0, [start])
    nn.add(start)
    for _ in range(max_iters):
        sample = _sample(area, dest, obstacles, rng)
        near = nn.nearest(sample)
        near_cell = tree.cells[near]
        if near_cell == sample:
            continue
        new = _step_toward(near_cell, sample, rng)
        if new in obstacles or new in tree.index or new not in area:
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
    tree = PlannerTree()
    nn = _NearestIndex(1024)
    tree.add(start, -1, 0, [start])
    nn.add(start)
    goal_index = -1
    budget = max_iters
    it = 0
    while it < budget:
        it += 1
        sample = _sample(area, dest, obstacles, rng)
        near = nn.nearest(sample)
        near_cell = tree.cells[near]
        if near_cell == sample:
            continue
        new = _step_toward(near_cell, sample, rng)
        if new in obstacles or new in tree.index or new not in area:
            continue

        neighborhood = [j for j in nn.within(new, REWIRE_RADIUS) if j != near]
        best_parent, best_cost, best_edge = near, tree.cost[near] + 1, [new]
        for j in sorted(neighborhood, key=lambda j: tree.cost[j]):
            d = manhattan(tree.cells[j], new)
            if tree.cost[j] + d >= best_cost:
                continue
            edge = _straight_edge(tree.cells[j], new, obstacles)
            if edge is not None:
                best_parent, best_cost, best_edge = j, tree.cost[j] + d, edge
        i = tree.add(new, best_parent, best_cost, best_edge)
        nn.add(new)

        for j in neighborhood:
            d = manhattan(new, tree.cells[j])
            if tree.cost[i] + d < tree.cost[j]:
                edge = _straight_edge(new, tree.cells[j], obstacles)
                if edge is None:
                    continue
                old_parent = tree.parent[j]
                if old_parent >= 0:
                    tree.children[old_parent].discard(j)
                tree.parent[j] = i
                tree.children[i].add(j)
                tree.edge[j] = edge
                tree.cost[j] = tree.cost[i] + d
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
