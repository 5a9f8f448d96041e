"""Every nearest-node and rewiring-ball query of real plans against a brute force.

The planners run on the first drones of built-in experiments with
`nearest` and `within` wrapped: each answer the tree gives is checked
against numpy distances before the planner reads it. A nearest-node query
is checked against every node the tree holds at that call, and each node of
a `within` block against every node before it.
"""

import random

import numpy as np
import pytest

from swarmgrid import baselines
from swarmgrid.baselines import REWIRE_RADIUS, rrt_plan, rrt_star_plan
from swarmgrid.harness import EXPERIMENTS, build_experiment

# (planner, experiment, drones planned): seed 0 of each.
# RRT* wires its nodes only until the goal is at its bound, often at the goal
# itself, so it plans more drones for within() to answer enough nodes.
CASES = [(rrt_star_plan, 1, 10), (rrt_plan, 1, 20), (rrt_plan, 2, 10)]


class Oracle:
    """Each tree's cells as a growing int array, and the queries checked."""

    def __init__(self):
        # id(tree) -> (tree, cells array, rows filled). Holding the tree
        # keeps its id from passing to a later tree.
        self.trees = {}
        self.calls = {"nearest": 0, "within": 0}

    def distances(self, tree, cell):
        """Manhattan distance from cell to every node of tree, by node index."""
        n = len(tree.cells)
        _, cells, filled = self.trees.get(id(tree), (tree, np.empty((0, 3), np.int64), 0))
        if n > filled:
            if n > len(cells):
                cells = np.concatenate([cells, np.empty((n, 3), np.int64)])
            cells[filled:n] = tree.cells[filled:n]
            self.trees[id(tree)] = (tree, cells, n)
        return np.abs(cells[:n] - np.array(cell)).sum(axis=1)

    def nearest(self, query):
        def checked(tree, cell):
            got = query(tree, cell)
            d = self.distances(tree, cell)
            # argmin returns the first of the closest nodes: the lowest index.
            assert got == int(d.argmin()), (cell, got)
            self.calls["nearest"] += 1
            return got
        return checked

    def within(self, query):
        def checked(tree, lo, hi):
            got = query(tree, lo, hi)
            js, ds, ends = got
            assert len(ends) == hi - lo and len(js) == len(ds) == ends[-1]
            begin = 0
            for i, end in zip(range(lo, hi), ends):
                d = self.distances(tree, tree.cells[i])[:i]
                expect = [(j, int(d[j])) for j in np.flatnonzero(d <= REWIRE_RADIUS).tolist()]
                assert sorted(zip(js[begin:end], ds[begin:end])) == expect, i
                begin = end
            self.calls["within"] += hi - lo
            return got
        return checked


@pytest.mark.parametrize("planner, exp, drones", CASES)
def test_planner_queries_match_brute_force(monkeypatch, planner, exp, drones):
    cfg = build_experiment(EXPERIMENTS[exp], 0)
    area = cfg.area()

    def plans():
        rng = random.Random(cfg.seed)
        return [
            planner(start, dest, cfg.static_obstacles, area, rng)
            for start, dest in cfg.drones[:drones]
        ]

    unchecked = plans()
    oracle = Oracle()
    index = baselines._NearestIndex
    monkeypatch.setattr(index, "nearest", oracle.nearest(index.nearest))
    monkeypatch.setattr(index, "within", oracle.within(index.within))
    assert plans() == unchecked
    # About 8600 nearest-node queries and 1554 nodes answered by within()
    # for RRT*, and 1400-1900 nearest-node queries for RRT, over trees of up
    # to 150-880 nodes.
    assert oracle.calls["nearest"] > 1000
    assert (oracle.calls["within"] > 1000) == (planner is rrt_star_plan)
