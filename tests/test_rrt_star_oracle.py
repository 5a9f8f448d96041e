"""RRT* against the incremental planner it replaced.

`rrt_star_plan` grows its whole tree as RRT does and then wires every node
in one pass, a block of nodes' rewiring balls at a time. The old planner
chose each node's parent and rewired its ball as the node was added. Their
routes, their plan failures and the generator's state after every plan must
be equal, and so must the parent and the edge of every node of the wired
tree, which both planners pass to `baselines._joined_edges`.

The old planner is kept as it was, except that each ball comes from
`old_within`, which finds the tree's cells at the ball's offsets through the
tree's cell -> node dict rather than through the probe slots, and that it
calls `_joined_edges` through the module, where the test records its
arguments.
"""

import random
from unittest import mock

import pytest

from swarmgrid import baselines
from swarmgrid.baselines import (
    DEFAULT_MAX_ITERS,
    REWIRE_RADIUS,
    PlanFailure,
    PlannerTree,
    _checked_obstacles,
    _propagate_cost,
    _sample,
    _sample_bounds,
    _step_toward,
    _straight_edge,
    rrt_star_plan,
)
from swarmgrid.harness import EXPERIMENTS, build_experiment
from swarmgrid.world import Area

# (dx, dy, dz, distance) of every offset within REWIRE_RADIUS.
BALL = [
    (dx, dy, dz, abs(dx) + abs(dy) + abs(dz))
    for dx in range(-REWIRE_RADIUS, REWIRE_RADIUS + 1)
    for dy in range(-REWIRE_RADIUS, REWIRE_RADIUS + 1)
    for dz in range(-REWIRE_RADIUS, REWIRE_RADIUS + 1)
    if abs(dx) + abs(dy) + abs(dz) <= REWIRE_RADIUS
]


def old_within(tree, cell):
    """(index, distance) of the tree's cells within REWIRE_RADIUS of cell, by index."""
    x, y, z = cell
    index = tree.index
    return sorted(
        (index[c], d) for dx, dy, dz, d in BALL if (c := (x + dx, y + dy, z + dz)) in index
    )


def old_rrt_star_plan(
    start, dest, static_obstacles, area, rng, max_iters=DEFAULT_MAX_ITERS, refine_iters=2_000
):
    """The incremental RRT*, wiring each node as it is added."""
    obstacles = _checked_obstacles(start, dest, static_obstacles, area)
    tree = PlannerTree(area.dims)
    tree.add(start, -1)
    bounds = _sample_bounds(area)
    cells, parent, index = tree.cells, tree.parent, tree.index
    cost = [0]
    edge = [[start]]
    children = [set()]
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

        neighborhood = old_within(tree, new)
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
    return baselines._joined_edges(parent, edge, goal_index)


def outcome(planner, start, dest, statics, area, rng, **kwargs):
    """The planner's route, or its failure's message; and each node's parent
    and edge in the tree it joined the route from (None on a failure)."""
    joined = []
    join = baselines._joined_edges

    def recording(parent, edge, i):
        joined.append((parent, edge))
        return join(parent, edge, i)

    with mock.patch.object(baselines, "_joined_edges", recording):
        try:
            return planner(start, dest, statics, area, rng, **kwargs), joined[0]
        except PlanFailure as exc:
            assert not joined
            return f"plan failure: {exc}", None


def assert_plans_agree(drones, statics, area, seed, **kwargs):
    """Both planners plan the drones in turn from one generator each; every
    outcome, the generators' states after it and the wired trees must be
    equal. Returns the outcomes."""
    rngs = [random.Random(seed), random.Random(seed)]
    got = []
    for j, (start, dest) in enumerate(drones):
        new, new_tree = outcome(rrt_star_plan, start, dest, statics, area, rngs[0], **kwargs)
        old, old_tree = outcome(old_rrt_star_plan, start, dest, statics, area, rngs[1], **kwargs)
        assert new == old, j
        assert rngs[0].getstate() == rngs[1].getstate(), j
        assert new_tree == old_tree, j
        got.append(new)
    return got


@pytest.mark.parametrize("exp", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_experiment_plans_match_the_incremental_planner(exp, seed):
    cfg = build_experiment(EXPERIMENTS[exp], seed)
    routes = assert_plans_agree(cfg.drones[:4], cfg.static_obstacles, cfg.area(), cfg.seed)
    assert all(isinstance(r, list) for r in routes)


def test_a_tree_of_two_blocks_matches(monkeypatch):
    # 20^3 with no obstacles and a long refine phase: the tree passes one
    # block of WIRE_BLOCK nodes, so a second block reads the first's nodes.
    blocks = []
    within = baselines._NearestIndex.within

    def counting(tree, lo, hi):
        blocks.append((lo, hi))
        return within(tree, lo, hi)

    monkeypatch.setattr(baselines._NearestIndex, "within", counting)
    area = Area(20, 20, 20, 10.0, 30.0, 9.0)
    assert_plans_agree([((0, 0, 0), (19, 19, 19))], [], area, 7, refine_iters=6_000)
    assert len(blocks) >= 2 and blocks[0] == (1, 1 + baselines.WIRE_BLOCK)
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("seed", range(6))
def test_small_dense_areas_match(seed):
    # About a third of a small area is obstacle, so many edges are blocked
    # and choose-parent and rewiring fall back often.
    rng = random.Random(seed)
    dims = (rng.randint(4, 7), rng.randint(4, 7), rng.randint(3, 6))
    every = [(x, y, z) for x in range(dims[0]) for y in range(dims[1]) for z in range(dims[2])]
    rng.shuffle(every)
    k = len(every) // 3
    statics, free = every[:k], every[k:]
    drones = [(free[2 * j], free[2 * j + 1]) for j in range(5)]
    area = Area(*dims, 10.0, 30.0, 9.0)
    assert_plans_agree(drones, statics, area, seed, max_iters=3_000, refine_iters=500)


@pytest.mark.parametrize("refine_iters", [0, 1, 5])
def test_short_refine_phases_match(refine_iters):
    cfg = build_experiment(EXPERIMENTS[1], 0)
    assert_plans_agree(
        cfg.drones[:6], cfg.static_obstacles, cfg.area(), cfg.seed, refine_iters=refine_iters
    )


def test_a_plan_failure_matches():
    cfg = build_experiment(EXPERIMENTS[3], 1)
    # Too few iterations for most drones to reach their goals, and a budget
    # that runs out during the refine phase for those that do.
    got = assert_plans_agree(cfg.drones[:8], cfg.static_obstacles, cfg.area(), cfg.seed,
                             max_iters=60, refine_iters=2_000)
    failures = [r for r in got if isinstance(r, str)]
    assert failures and failures[0].startswith("plan failure: no route to ")
    assert failures[0].endswith(" within 60 iterations")
