"""The planners' cell-indexed nearest-neighbour queries against a brute force."""

import random

import numpy as np
import pytest

from swarmgrid.baselines import _PROBE_SHARE, _NearestIndex


def brute_nearest(cells, q):
    """What the planners always got: argmin over a linear scan, lowest index on ties."""
    d = np.abs(np.array(cells) - np.array(q)).sum(axis=1)
    return int(d.argmin())


def brute_within(cells, q, radius):
    d = np.abs(np.array(cells) - np.array(q)).sum(axis=1)
    return np.nonzero(d <= radius)[0].tolist()


def build(cells, capacity=1024):
    nn = _NearestIndex(capacity)
    for c in cells:
        nn.add(c)
    return nn


def distinct_cells(rng, n, side):
    out = {}
    while len(out) < n:
        c = (rng.randrange(side), rng.randrange(side), rng.randrange(side))
        out.setdefault(c, None)
    return list(out)


@pytest.mark.parametrize("n", [1, 7, 40, 300, 1100, 2500])
def test_random_queries_match_brute_force(n):
    rng = random.Random(n)
    cells = distinct_cells(rng, n, 16)
    nn = build(cells)
    queries = distinct_cells(rng, 150, 16) + [(-9, 30, 4), (40, 40, 40)]
    for q in queries:
        assert nn.nearest(q) == brute_nearest(cells, q)
        for radius in (0, 1, 3):
            # brute_within is ascending, so this also checks the order.
            assert nn.within(q, radius) == brute_within(cells, q, radius)


def test_equal_distance_ties_go_to_the_lowest_index():
    q = (10, 10, 10)
    ring = [(12, 10, 10), (10, 8, 10), (9, 10, 11), (10, 11, 9), (11, 11, 10)]
    far = distinct_cells(random.Random(0), 1000, 12)
    filler = [(x + 25, y + 25, z + 25) for x, y, z in far]
    # Enough cells that nearest() probes the shells out to distance 2.
    assert len(filler) // _PROBE_SHARE >= 25
    for order in (ring, ring[::-1], ring[2:] + ring[:2]):
        cells = filler[:700] + order + filler[700:]
        nn = build(cells)
        expected = brute_nearest(cells, q)
        assert cells[expected] == order[0]
        assert nn.nearest(q) == expected
        # Few cells: the numpy fallback breaks ties the same way.
        assert build(order).nearest(q) == brute_nearest(order, q) == 0


def test_far_samples_take_the_fallback_scan():
    rng = random.Random(1)
    cells = distinct_cells(rng, 400, 8)
    nn = build(cells)
    # Far outside the cells: the first shell holding one is larger than the
    # probe budget, so the answer comes from the scan.
    for q in [(30, 30, 30), (-20, 4, 4), (4, 4, 50), (7, -15, 7)]:
        assert nn.nearest(q) == brute_nearest(cells, q)


def test_growth_past_initial_capacity():
    rng = random.Random(3)
    cells = distinct_cells(rng, 3000, 20)
    nn = _NearestIndex(1024)
    for i, c in enumerate(cells):
        nn.add(c)
        if i in (1023, 1024, 2047, 2048, 2999):
            seen = cells[: i + 1]
            for q in distinct_cells(random.Random(i), 20, 20):
                assert nn.nearest(q) == brute_nearest(seen, q)
                assert nn.within(q, 2) == brute_within(seen, q, 2)
