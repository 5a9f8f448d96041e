"""The planners' cell-indexed nearest-neighbour queries against a brute force."""

import random

import numpy as np
import pytest

from swarmgrid import baselines
from swarmgrid.baselines import _PROBE_SHARE, _REACH, _NearestIndex

# Keys are one-digit CPython ints (below 2**30) while the radix is at most this.
RADIX_LIMIT = 1 << 10


def brute_nearest(cells, q):
    """What the planners always got: argmin over a linear scan, lowest index on ties."""
    d = np.abs(np.array(cells) - np.array(q)).sum(axis=1)
    return int(d.argmin())


def brute_within(cells, q, radius):
    """(index, distance) of every cell within radius, by index."""
    d = np.abs(np.array(cells) - np.array(q)).sum(axis=1)
    return [(i, int(d[i])) for i in np.nonzero(d <= radius)[0].tolist()]


def build(cells, dims=(40, 40, 40), capacity=1024):
    nn = _NearestIndex(dims, capacity)
    for c in cells:
        nn.add(c)
    return nn


def distinct_cells(rng, n, side, low=0):
    out = {}
    while len(out) < n:
        c = tuple(rng.randrange(low, low + side) for _ in range(3))
        out.setdefault(c, None)
    return list(out)


def agrees(nn, cells, queries, radii=(0, 1, 3)):
    for q in queries:
        assert nn.nearest(q) == brute_nearest(cells, q), q
        for radius in radii:
            # brute_within is ascending, so this also checks the order.
            assert nn.within(q, radius) == brute_within(cells, q, radius), (q, radius)


@pytest.mark.parametrize("n", [1, 7, 40, 300, 1100, 2500])
def test_random_queries_match_brute_force(n):
    rng = random.Random(n)
    cells = distinct_cells(rng, n, 16)
    nn = build(cells, dims=(16, 16, 16))
    queries = distinct_cells(rng, 150, 16) + [(-9, 30, 4), (40, 40, 40)]
    agrees(nn, cells, queries)


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
    nn = build(cells, dims=(8, 8, 8))
    # Far outside the cells: the first shell holding one is larger than the
    # probe budget, so the answer comes from the scan.
    for q in [(30, 30, 30), (-20, 4, 4), (4, 4, 50), (7, -15, 7)]:
        assert nn.nearest(q) == brute_nearest(cells, q)


def test_growth_past_initial_capacity():
    rng = random.Random(3)
    cells = distinct_cells(rng, 3000, 20)
    nn = _NearestIndex((20, 20, 20), 1024)
    for i, c in enumerate(cells):
        nn.add(c)
        if i in (1023, 1024, 2047, 2048, 2999):
            seen = cells[: i + 1]
            for q in distinct_cells(random.Random(i), 20, 20):
                assert nn.nearest(q) == brute_nearest(seen, q)
                assert nn.within(q, 2) == brute_within(seen, q, 2)


def test_queries_at_and_beyond_the_area_edge():
    # Cells on the faces of the area: probes from them reach negative and
    # past-the-end coordinates, and queries from outside take the scan.
    rng = random.Random(5)
    dims = (9, 6, 11)
    cells = list({
        tuple(rng.choice((0, 1, d - 2, d - 1)) if k == axis else rng.randrange(d)
              for k, d in enumerate(dims))
        for axis in (0, 1, 2) for _ in range(120)
    })
    nn = build(cells, dims)
    corners = [(x, y, z) for x in (0, 8) for y in (0, 5) for z in (0, 10)]
    outside = [(-1, 0, 0), (0, -2, 5), (4, 3, -1), (9, 5, 10), (8, 6, 10), (8, 5, 11),
               (-3, -3, -3), (-100, 2, 2), (4, 10**6, 4), (-10**9, -10**9, 10**9)]
    agrees(nn, cells, corners + outside, radii=(0, 1, 2, 3, _REACH, _REACH + 4))


def test_dims_at_the_radix_limit_keep_keys_distinct():
    # The largest area whose keys are all one-digit ints: radix**3 == 2**30.
    side = RADIX_LIMIT - _REACH
    dims = (side, side, side)
    nn = _NearestIndex(dims)
    assert nn._radix ** 3 <= 2**30
    rng = random.Random(7)
    last = side - 1
    cells = list({
        tuple(rng.choice((rng.randrange(7), last - rng.randrange(7))) for _ in range(3))
        for _ in range(2500)
    })
    for c in cells:
        nn.add(c)
    offsets = [o for shell in baselines._shells(nn._radix) for o in shell]
    keys = list(nn._index)
    assert -(2**30) < min(keys) + min(offsets) and max(keys) + max(offsets) < 2**30
    assert len(cells) // _PROBE_SHARE >= 25  # nearest() probes out to distance 2
    queries = [(x, y, z) for x in (0, 2, last - 2, last)
               for y in (0, last) for z in (1, last - 1)]
    queries += [(side // 2, 0, last), (-1, 0, 0), (side, last, last), (-side, side, 0)]
    agrees(nn, cells, queries)


@pytest.mark.parametrize("side", [RADIX_LIMIT - _REACH + 1, 5000])
def test_areas_past_the_radix_limit_still_answer_exactly(side):
    dims = (side, 3, side)
    rng = random.Random(side)
    cells = list({(rng.choice((0, side - 1, side // 2)), rng.randrange(3),
                   rng.choice((0, 1, side - 1))) for _ in range(60)})
    nn = build(cells, dims)
    queries = [(0, 0, 0), (side - 1, 2, side - 1), (side // 2, 1, 1), (-5, 1, side + 5)]
    agrees(nn, cells, queries)


def test_probes_out_to_the_reach_beyond_the_area(monkeypatch):
    # Probe every shell out to _REACH before scanning, from queries on the
    # area's faces, so probed cells lie up to _REACH outside the area.
    monkeypatch.setattr(baselines, "_SCAN_PROBES", 10**5)
    dims = (24, 24, 24)
    rng = random.Random(11)
    cells = distinct_cells(rng, 40, 6, low=9)
    nn = build(cells, dims)
    queries = [(0, 0, 0), (23, 23, 23), (0, 12, 23), (23, 0, 11), (12, 12, 0)]
    agrees(nn, cells, queries, radii=(_REACH,))


def test_cells_outside_the_area_are_refused():
    nn = _NearestIndex((5, 5, 5))
    nn.add((4, 4, 4))
    for bad in [(5, 0, 0), (0, -1, 0), (0, 0, 5)]:
        with pytest.raises(ValueError, match="outside the area"):
            nn.add(bad)
    assert nn.within((4, 4, 4), 3) == [(0, 0)]
