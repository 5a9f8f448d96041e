"""RRT* against the incremental planner it replaced.

`rrt_star_plan` grows its whole tree as RRT does and then wires its nodes
in index order in one pass, a block of nodes' rewiring balls at a time, until
the goal is wired and costs its Manhattan distance from the root. The old
planner chose each node's parent and rewired its ball as the node was added,
for every node. Their routes, their plan failures and the generator's state
after every plan must be equal. The new planner passes `_joined_edges` the
edges of the k nodes it wired and the parents of all nodes; the parents of
those k nodes and their edges must equal the old planner's right after it
added its k-th node.

The old planner is kept as it was, except that each ball comes from
`old_within`, which finds the tree's cells at the ball's offsets through the
tree's cell -> node dict rather than through the probe slots, that it
calls `_joined_edges` through the module, where the test records its
arguments, and that it keeps a copy of its parents and edges once it holds
`wired` nodes.
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
    start, dest, static_obstacles, area, rng, max_iters=DEFAULT_MAX_ITERS, refine_iters=2_000,
    wired=0, snapshot=None,
):
    """The incremental RRT*, wiring each node as it is added. Once the tree
    holds `wired` nodes, it appends (parent, edge) as they stand to
    snapshot."""
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
        if i + 1 == wired:
            snapshot.append((list(parent), list(edge)))

        if new == dest and goal_index < 0:
            goal_index = i
            budget = min(max_iters, it + refine_iters)
    if goal_index < 0:
        raise PlanFailure(f"no route to {dest} within {max_iters} iterations")
    return baselines._joined_edges(parent, edge, goal_index)


def outcome(planner, start, dest, statics, area, rng, **kwargs):
    """The planner's route, or its failure's message; and the parents, the
    edges and the goal node it joined the route from (None on a failure)."""
    joined = []
    join = baselines._joined_edges

    def recording(parent, edge, i):
        joined.append((parent, edge, i))
        return join(parent, edge, i)

    with mock.patch.object(baselines, "_joined_edges", recording):
        try:
            return planner(start, dest, statics, area, rng, **kwargs), joined[0]
        except PlanFailure as exc:
            assert not joined
            return f"plan failure: {exc}", None


def assert_plans_agree(drones, statics, area, seed, **kwargs):
    """Both planners plan the drones in turn from one generator each; every
    outcome, the generators' states after it and the wired nodes' parents
    and edges must be equal. Returns the outcomes, and per plan that did not
    fail (goal node, nodes wired, nodes in the tree)."""
    rngs = [random.Random(seed), random.Random(seed)]
    got, stops = [], []
    for j, (start, dest) in enumerate(drones):
        new, new_tree = outcome(rrt_star_plan, start, dest, statics, area, rngs[0], **kwargs)
        wired = len(new_tree[1]) if new_tree else 0
        snapshot = []
        old, _ = outcome(old_rrt_star_plan, start, dest, statics, area, rngs[1], **kwargs,
                         wired=wired, snapshot=snapshot)
        assert new == old, j
        assert rngs[0].getstate() == rngs[1].getstate(), j
        if new_tree:
            parent, edge, goal = new_tree
            assert goal < wired <= len(parent), j
            assert snapshot == [(parent[:wired], edge)], j
            stops.append((goal, wired, len(parent)))
        got.append(new)
    return got, stops


@pytest.mark.parametrize("exp", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_experiment_plans_match_the_incremental_planner(exp, seed):
    cfg = build_experiment(EXPERIMENTS[exp], seed)
    routes, stops = assert_plans_agree(cfg.drones[:4], cfg.static_obstacles, cfg.area(), cfg.seed)
    assert all(isinstance(r, list) for r in routes)
    # Every one of these plans stops wiring before its last node.
    assert all(wired < nodes for _, wired, nodes in stops)


def test_a_goal_at_its_bound_only_after_later_nodes_matches():
    # exp1 seed 1's first drone: its goal is node 80, and only node 271's
    # rewiring brings it to its bound, well before the last node.
    cfg = build_experiment(EXPERIMENTS[1], 1)
    _, stops = assert_plans_agree(cfg.drones[:1], cfg.static_obstacles, cfg.area(), cfg.seed)
    [(goal, wired, nodes)] = stops
    assert goal + 1 < wired < nodes


def test_a_tree_of_two_blocks_matches(monkeypatch):
    # 14^3 with a wall at x = 7 whose one gap lies off every shortest route
    # from start to dest, so the goal never reaches its bound and every node
    # is wired; with a long refine phase that is more than one block of
    # WIRE_BLOCK nodes, so a later block reads an earlier one's nodes.
    blocks = []
    within = baselines._NearestIndex.within

    def counting(tree, lo, hi):
        blocks.append((lo, hi))
        return within(tree, lo, hi)

    monkeypatch.setattr(baselines._NearestIndex, "within", counting)
    area = Area(14, 14, 14, 10.0, 30.0, 9.0)
    wall = [(7, y, z) for y in range(14) for z in range(14) if (y, z) != (13, 13)]
    _, [(goal, wired, nodes)] = assert_plans_agree(
        [((0, 0, 0), (13, 3, 3))], wall, area, 7, refine_iters=6_000
    )
    assert wired == nodes > baselines.WIRE_BLOCK
    # The blocks cover every node in order, none longer than WIRE_BLOCK,
    # and one ends at the goal.
    assert blocks[0][0] == 1 and blocks[-1][1] == nodes and len(blocks) >= 2
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(0 < hi - lo <= baselines.WIRE_BLOCK for lo, hi in blocks)
    assert goal + 1 in [hi for _, hi in blocks]


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
    got, _ = assert_plans_agree(cfg.drones[:8], cfg.static_obstacles, cfg.area(), cfg.seed,
                             max_iters=60, refine_iters=2_000)
    failures = [r for r in got if isinstance(r, str)]
    assert failures and failures[0].startswith("plan failure: no route to ")
    assert failures[0].endswith(" within 60 iterations")
