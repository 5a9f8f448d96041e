"""Sampling planners and open-loop route execution."""

import copy
import random
from collections import Counter

import pytest

from swarmgrid import baselines
from swarmgrid.baselines import (
    GOAL_BIAS,
    REWIRE_RADIUS,
    PlanFailure,
    PlannerTree,
    _joined_edges,
    _sample,
    _sample_bounds,
    _step_toward,
    _straight_edge,
    execute_open_loop,
    rrt_plan,
    rrt_star_plan,
)
from swarmgrid.engine import SimConfig
from swarmgrid.world import Area, manhattan

AREA = Area(8, 8, 8, 10.0, 30.0, 9.0)


def check_route(route, start, dest, obstacles):
    assert route[0] == start
    assert route[-1] == dest
    for a, b in zip(route, route[1:]):
        assert manhattan(a, b) == 1
        assert b in AREA
    assert not set(route) & set(obstacles)


def test_straight_edge_simple():
    path = _straight_edge((0, 0, 0), (2, 1, 0), set())
    assert path is not None
    assert path[-1] == (2, 1, 0)
    assert len(path) == 3
    cur = (0, 0, 0)
    for c in path:
        assert manhattan(cur, c) == 1
        cur = c


def test_straight_edge_routes_around_one_axis_order():
    # x-first passes through the obstacle, y-first does not
    path = _straight_edge((0, 0, 0), (2, 2, 0), {(1, 0, 0)})
    assert path is not None
    assert (1, 0, 0) not in path


def test_straight_edge_fully_blocked():
    # every 1-step approach to the target is an obstacle
    target = (4, 4, 4)
    walls = {(3, 4, 4), (5, 4, 4), (4, 3, 4), (4, 5, 4), (4, 4, 3), (4, 4, 5)}
    assert _straight_edge((0, 0, 0), target, walls) is None


def test_planner_tree_path_concatenation():
    # RRT's route is the parent walk: one cell per node, root first.
    t = PlannerTree((8, 8, 8))
    r = t.add((0, 0, 0), -1)
    a = t.add((1, 0, 0), r)
    t.add((1, 1, 0), a)
    b = t.add((2, 0, 0), a)
    c = t.add((3, 0, 0), b)
    assert t.path_to(c) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert t.path_to(r) == [(0, 0, 0)]
    # RRT*'s route joins the edges along the parent links, each edge without
    # its parent's cell.
    parent = [-1, 0, 1]
    edge = [[(0, 0, 0)], [(1, 0, 0)], [(2, 0, 0), (3, 0, 0)]]
    assert _joined_edges(parent, edge, 2) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert _joined_edges(parent, edge, 0) == [(0, 0, 0)]


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_planner_route_validity(planner):
    obstacles = [(3, y, z) for y in range(8) for z in range(8) if (y, z) != (4, 4)]
    for seed in range(5):
        route = planner(
            (0, 4, 4), (7, 4, 4), obstacles, AREA, random.Random(seed)
        )
        check_route(route, (0, 4, 4), (7, 4, 4), obstacles)
        # the only gap in the wall is (3,4,4)
        assert (3, 4, 4) in route


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_planner_determinism(planner):
    args = ((0, 0, 0), (6, 6, 6), [(3, 3, 3)], AREA)
    a = planner(*args, random.Random(11))
    b = planner(*args, random.Random(11))
    assert a == b


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_planner_rejects_degenerate_input(planner):
    with pytest.raises(ValueError):
        planner((1, 1, 1), (1, 1, 1), [], AREA, random.Random(0))
    with pytest.raises(ValueError):
        planner((0, 0, 0), (1, 1, 1), [(1, 1, 1)], AREA, random.Random(0))
    with pytest.raises(ValueError, match="in the area"):
        planner((0, 0, 0), (8, 1, 1), [], AREA, random.Random(0))
    with pytest.raises(ValueError, match="in the area"):
        planner((0, -1, 0), (1, 1, 1), [], AREA, random.Random(0))


def test_plan_failure_on_unreachable_dest():
    target = (4, 4, 4)
    walls = [(3, 4, 4), (5, 4, 4), (4, 3, 4), (4, 5, 4), (4, 4, 3), (4, 4, 5)]
    with pytest.raises(PlanFailure):
        rrt_plan((0, 0, 0), target, walls, AREA, random.Random(0), max_iters=3000)


def test_rrt_star_not_longer_than_rrt_on_average():
    obstacles = [(2, 2, z) for z in range(8)] + [(5, 5, z) for z in range(8)]
    rrt_total = star_total = 0
    for seed in range(6):
        rrt_total += len(
            rrt_plan((0, 0, 0), (7, 7, 7), obstacles, AREA, random.Random(seed))
        )
        star_total += len(
            rrt_star_plan((0, 0, 0), (7, 7, 7), obstacles, AREA, random.Random(seed))
        )
    assert star_total <= rrt_total


def test_rrt_star_near_optimal_in_open_space():
    route = rrt_star_plan((0, 0, 0), (6, 6, 6), [], AREA, random.Random(3))
    optimal = manhattan((0, 0, 0), (6, 6, 6))
    assert len(route) - 1 <= optimal * 1.5


def test_open_loop_execution_counts_collisions():
    cfg = SimConfig(
        dims=(8, 8, 8),
        drones=[((0, 0, 0), (4, 0, 0)), ((4, 0, 0), (0, 0, 0))],
        seed=0,
    )
    # head-on routes along the same line: colocation mid-way is certain
    fwd = [(x, 0, 0) for x in range(5)]
    routes = {0: fwd, 1: list(reversed(fwd))}
    res = execute_open_loop(routes, cfg)
    assert res.ticks == 4
    assert any(c.kind in ("colocation", "swap") for c in res.collisions)


def test_open_loop_static_overlap_detected():
    cfg = SimConfig(
        dims=(8, 8, 8),
        drones=[((0, 0, 0), (3, 0, 0))],
        static_obstacles=[(2, 0, 0)],
        seed=0,
    )
    routes = {0: [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]}
    res = execute_open_loop(routes, cfg)
    assert [c.kind for c in res.collisions] == ["obstacle"]
    assert res.collisions[0].cell == (2, 0, 0)


def test_open_loop_clean_run_has_no_collisions():
    cfg = SimConfig(dims=(8, 8, 8), drones=[((0, 0, 0), (3, 0, 0))], seed=0)
    routes = {0: [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]}
    res = execute_open_loop(routes, cfg)
    assert res.collisions == []
    assert res.ticks == 3


TREE_LAYERS = [
    (baselines, "_sample"), (baselines.PlannerTree, "add"), (baselines._NearestIndex, "nearest"),
]
STAR_LAYERS = TREE_LAYERS + [
    (baselines, "_straight_edge"), (baselines, "_propagate_cost"),
    (baselines._NearestIndex, "within"),
]


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_planner_layers_are_looked_up_by_name_when_called(monkeypatch, planner):
    # Wrapping a layer by name, as a tracer does, sees every call of it.
    layers = STAR_LAYERS if planner is rrt_star_plan else TREE_LAYERS
    counts = Counter()
    trees = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in layers:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    init = PlannerTree.__init__

    def keeping_trees(tree, dims):
        trees.append(tree)
        init(tree, dims)

    monkeypatch.setattr(PlannerTree, "__init__", keeping_trees)
    obstacles = [(3, y, z) for y in range(8) for z in range(8) if y < 5]
    planner((0, 0, 0), (7, 7, 7), obstacles, AREA, random.Random(2))
    assert all(counts[name] for _, name in layers), counts
    # Every node of the planner's one tree went through add(), and samples
    # already on the tree skipped the nearest-node query.
    assert [counts["add"]] == [len(tree.cells) for tree in trees]
    assert counts["nearest"] < counts["_sample"]
    if planner is rrt_star_plan:
        # Every node but the root asked for its rewiring neighbourhood.
        assert counts["within"] == counts["add"] - 1


def test_open_loop_calls_are_looked_up_by_name_when_called(monkeypatch):
    # A tick clock stamps each open-loop tick by the return of the scan,
    # and a tracer wraps the scan and the obstacle step, both by their
    # names in baselines.
    scans = []
    steps = []
    scan, step = baselines.detect_collisions_ground_truth, baselines.step_moving_obstacle

    def counting_scan(before, after, obstacle_cells, tick, *args):
        scans.append(tick)
        return scan(before, after, obstacle_cells, tick, *args)

    def counting_step(o, tick, *args, **kwargs):
        steps.append((tick, o.id))
        return step(o, tick, *args, **kwargs)

    cfg = SimConfig(
        dims=(8, 8, 8),
        drones=[],
        static_obstacles=[(2, 0, 0)],
        moving_obstacles=[((4, 4, 4), 1, 0), ((5, 5, 5), 3, 2)],
        seed=3,
    )
    routes = {0: [(x, 0, 0) for x in range(8)], 1: [(0, 1, 0), (0, 2, 0)], 2: [(7, 7, 7)]}
    unpatched = execute_open_loop(routes, cfg)
    monkeypatch.setattr(baselines, "detect_collisions_ground_truth", counting_scan)
    monkeypatch.setattr(baselines, "step_moving_obstacle", counting_step)
    res = execute_open_loop(routes, cfg)
    assert res == unpatched
    # One scan per tick, in tick order, from the first tick to the last.
    assert scans == list(range(res.ticks)) == list(range(7))
    # Obstacle 0 steps every tick and needs four steps to leave the area;
    # obstacle 1 first steps on its spawn tick, after obstacle 0.
    assert steps[:4] == [(0, 0), (1, 0), (2, 0), (2, 1)]


# The generator's next draw after planning the wall-gap route below with
# random.Random(4).
NEXT_DRAW = {rrt_plan: 0.3651908247451906, rrt_star_plan: 0.2157181062459823}


# This test and the next keep the names they had while the planners pooled
# their probe lists; each tree now builds its own list, and what they check
# outlived the pool.
@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_a_failed_plan_leaves_its_pooled_slots_clean(planner):
    # A plan after a failed plan gives the fresh plan's route and draws.
    obstacles = [(3, y, z) for y in range(8) for z in range(8) if (y, z) != (4, 4)]
    args = ((0, 4, 4), (7, 4, 4), obstacles, AREA)
    fresh_rng = random.Random(4)
    fresh = planner(*args, fresh_rng)
    assert fresh == [(x, 4, 4) for x in range(8)]
    check = random.Random()
    check.setstate(fresh_rng.getstate())
    assert check.random() == NEXT_DRAW[planner]
    with pytest.raises(PlanFailure):
        planner(*args, random.Random(9), max_iters=40)
    after_rng = random.Random(4)
    assert planner(*args, after_rng) == fresh
    assert after_rng.getstate() == fresh_rng.getstate()


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_a_returned_plan_pools_one_cleared_list(planner):
    # The only module globals a plan writes are the _TABLES and _BALLS
    # caches, filled once per area dims and radix and only read after that.
    def state():
        return {
            k: (v, copy.copy(v) if isinstance(v, (dict, list, set)) else None)
            for k, v in vars(baselines).items() if not k.startswith("__")
        }

    planner((0, 0, 0), (7, 7, 7), [(3, 3, 3)], AREA, random.Random(0))
    before = state()
    for seed in range(3):
        planner((0, 0, 0), (7, 7, 7), [(3, 3, 3)], AREA, random.Random(seed))
    assert state() == before


@pytest.mark.parametrize("planner", [rrt_plan, rrt_star_plan])
def test_planners_refuse_areas_past_64_cells_a_side(planner):
    for dims in [(65, 64, 64), (64, 65, 64), (64, 64, 65)]:
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError) as refused:
            planner((0, 0, 0), (2, 1, 0), [], Area(*dims, 10.0, 30.0, 9.0), rng)
        assert str(refused.value) == (
            f"the planners take areas of up to 64 cells a side, got dims {dims!r}"
        )
        # Refused before it draws or builds a table.
        assert rng.getstate() == state
        assert dims not in baselines._TABLES
    cube = Area(64, 64, 64, 10.0, 30.0, 9.0)
    route = planner((0, 0, 0), (2, 1, 0), [], cube, random.Random(5))
    assert route[0] == (0, 0, 0) and route[-1] == (2, 1, 0)
    assert all(manhattan(a, b) == 1 and b in cube for a, b in zip(route, route[1:]))


def test_live_trees_of_the_same_dims_answer_independently():
    rng = random.Random(6)
    every = [(x, y, z) for x in range(8) for y in range(8) for z in range(8)]
    live = [PlannerTree(AREA.dims), PlannerTree(AREA.dims)]
    # Grown in turns from overlapping draws, so each adds cells the other holds.
    for n, tree in [(40, live[0]), (60, live[1]), (50, live[0])]:
        for cell in rng.sample(every, n):
            if cell not in tree.index:
                tree.add(cell, len(tree.cells) - 1)
    assert live[0]._slots is not live[1]._slots
    assert live[0]._table is live[1]._table
    for tree in live:
        cells = tree.cells
        for q in every:
            dist = [manhattan(c, q) for c in cells]
            assert tree.nearest(q) == dist.index(min(dist))
            assert tree.within(q) == [(i, d) for i, d in enumerate(dist) if d <= REWIRE_RADIUS]


# The planners' draws before they took getrandbits directly, kept verbatim:
# the new draws must give the same cells and leave the generator in the same
# state, or routes and every later draw would change.
def _old_sample(area, dest, obstacles, rng):
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


def _old_step_toward(frm, to, rng):
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


# Small dims and each side of every power of two up to 1024, where the bit
# length, and so the rejection rate, changes.
DRAW_DIMS = sorted(
    {2, 3, 5} | {v for k in range(1, 11) for v in (2**k - 1, 2**k, 2**k + 1) if 2 <= v <= 1024}
)


def _same_samples(area, dest, obstacles, seed, draws):
    old, new = random.Random(seed), random.Random(seed)
    bounds = _sample_bounds(area)
    got = []
    for _ in range(draws):
        cell = _sample(bounds, dest, obstacles, new)
        assert cell == _old_sample(area, dest, obstacles, old)
        assert new.getstate() == old.getstate()
        got.append(cell)
    return got


@pytest.mark.parametrize("k", range(len(DRAW_DIMS)))
def test_sample_draws_as_randrange_did(k):
    # Each dim on each axis, next to others of different bit lengths.
    n = len(DRAW_DIMS)
    dims = (DRAW_DIMS[k], DRAW_DIMS[(k + 1) % n], DRAW_DIMS[(k + 5) % n])
    area = Area(*dims, 10.0, 30.0, 9.0)
    rng = random.Random(k)
    obstacles = {tuple(rng.randrange(d) for d in dims) for _ in range(20)}
    dest = tuple(d - 1 for d in dims)
    got = _same_samples(area, dest, obstacles, k, 400)
    assert all(c == dest or (c in area and c not in obstacles) for c in got)


@pytest.mark.parametrize("dims, free", [((5, 5, 5), 2), ((2, 3, 5), 1), ((17, 2, 9), 4)])
def test_sample_draws_as_randrange_did_among_dense_obstacles(dims, free):
    # All but a few cells are obstacles, so most draws are rejected.
    cells = [(x, y, z) for x in range(dims[0]) for y in range(dims[1]) for z in range(dims[2])]
    random.Random(len(cells)).shuffle(cells)
    obstacles = set(cells[free:])
    area = Area(*dims, 10.0, 30.0, 9.0)
    got = _same_samples(area, cells[0], obstacles, 3, 300)
    assert set(got) == set(cells[:free])


def test_sample_goal_bias_hits_draw_as_before():
    area = Area(8, 8, 8, 10.0, 30.0, 9.0)
    dest = (7, 0, 3)
    got = _same_samples(area, dest, {(1, 1, 1)}, 21, 2000)
    # About GOAL_BIAS of the draws are the goal, and the draws after each
    # goal hit still match.
    assert 50 < got.count(dest) < 150


def test_step_toward_draws_as_choice_did():
    frm = (4, 4, 4)
    targets = [(x, y, z) for x in (2, 4, 7) for y in (0, 4, 5) for z in (3, 4, 9)]
    targets.remove(frm)
    old, new = random.Random(8), random.Random(8)
    for _ in range(40):
        for to in targets:
            # One differing axis still draws until a 0 bit, as choice did.
            step = _step_toward(frm, to, new)
            assert step == _old_step_toward(frm, to, old)
            assert new.getstate() == old.getstate()
            assert manhattan(step, to) == manhattan(frm, to) - 1
