"""Sampling planners and open-loop route execution."""

import random
from collections import Counter

import pytest

from swarmgrid import baselines
from swarmgrid.baselines import (
    PlanFailure,
    PlannerTree,
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
    t = PlannerTree()
    r = t.add((0, 0, 0), -1, 0, [(0, 0, 0)])
    a = t.add((1, 0, 0), r, 1, [(1, 0, 0)])
    b = t.add((3, 0, 0), a, 3, [(2, 0, 0), (3, 0, 0)])
    assert t.path_to(b) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]


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


def test_planner_layers_are_looked_up_by_name_when_called(monkeypatch):
    # Wrapping a layer by name, as a tracer does, sees every call of it.
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    layers = [
        (baselines, "_sample"), (baselines, "_straight_edge"),
        (baselines, "_propagate_cost"), (baselines.PlannerTree, "add"),
        (baselines._NearestIndex, "nearest"), (baselines._NearestIndex, "within"),
    ]
    for owner, name in layers:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    obstacles = [(3, y, z) for y in range(8) for z in range(8) if y < 5]
    rrt_star_plan((0, 0, 0), (7, 7, 7), obstacles, AREA, random.Random(2))
    assert all(counts[name] for _, name in layers), counts
    # Every node but the root asked for its rewiring neighbourhood, and
    # samples already on the tree skipped the nearest-node query.
    assert counts["within"] == counts["add"] - 1
    assert counts["nearest"] < counts["_sample"]
