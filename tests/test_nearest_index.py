"""The planners' cell-indexed nearest-neighbour queries against a brute force."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmgrid import baselines
from swarmgrid.baselines import PLAN_DIM_MAX, REWIRE_RADIUS, PlannerTree, _NearestIndex


def brute_nearest(cells, q):
    """What the planners always got: argmin over a linear scan, lowest index on ties."""
    d = np.abs(np.array(cells) - np.array(q)).sum(axis=1)
    return int(d.argmin())


def brute_within(cells, lo, hi):
    """For each node i with lo <= i < hi, (index, distance) of every node
    j < i within REWIRE_RADIUS of it, by index."""
    a = np.array(cells)
    out = []
    for i in range(lo, hi):
        d = np.abs(a[:i] - a[i]).sum(axis=1)
        out.append([(j, int(d[j])) for j in np.flatnonzero(d <= REWIRE_RADIUS).tolist()])
    return out


def within_runs(nn, lo, hi):
    """within(lo, hi) as one (index, distance) list per node, by index.
    Checks that the answer has one end per node and that each node's
    entries come in ball order, by distance."""
    js, ds, ends = nn.within(lo, hi)
    assert len(ends) == hi - lo and len(js) == len(ds) == (ends[-1] if ends else 0)
    runs = []
    begin = 0
    for end in ends:
        assert ds[begin:end] == sorted(ds[begin:end])
        runs.append(sorted(zip(js[begin:end], ds[begin:end])))
        begin = end
    return runs


def blocks_agree(nn, cells):
    """within() over all the nodes, over the later half, and over the last
    node alone gives each node's nodes before it within the radius."""
    n = len(cells)
    expect = brute_within(cells, 0, n)
    for lo in (0, n // 2, n - 1):
        assert within_runs(nn, lo, n) == expect[lo:], lo


def build(cells, dims=(40, 40, 40)):
    tree = PlannerTree(dims)
    for c in cells:
        tree.add(c, -1)
    return tree


def distinct_cells(rng, n, side, low=0):
    out = {}
    while len(out) < n:
        c = tuple(rng.randrange(low, low + side) for _ in range(3))
        out.setdefault(c, None)
    return list(out)


def agrees(nn, cells, queries):
    for q in queries:
        assert nn.nearest(q) == brute_nearest(cells, q), q
    blocks_agree(nn, cells)
    # Each query cell also joins a second tree as a node after the cells, so
    # within() answers from it.
    held = set(cells)
    grown = cells + [q for q in dict.fromkeys(queries) if q not in held]
    blocks_agree(build(grown, nn._dims), grown)


def refuses_dims(dims):
    """Building a tree of these dims raises one line naming them."""
    line = f"the planners take areas of up to {PLAN_DIM_MAX} cells a side, got dims {dims!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        PlannerTree(dims)


def refuses(nn, queries):
    """nearest() raises ValueError naming each cell, which lies outside the area."""
    for q in queries:
        with pytest.raises(ValueError, match=rf"cell {re.escape(repr(q))} lies outside"):
            nn.nearest(q)


@pytest.mark.parametrize("n", [1, 7, 40, 300, 1100, 2500])
def test_random_queries_match_brute_force(n):
    rng = random.Random(n)
    cells = distinct_cells(rng, n, 16)
    nn = build(cells, dims=(16, 16, 16))
    agrees(nn, cells, distinct_cells(rng, 150, 16))
    refuses(nn, [(-9, 30, 4), (40, 40, 40)])


def test_equal_distance_ties_go_to_the_lowest_index():
    q = (10, 10, 10)
    ring = [(12, 10, 10), (10, 8, 10), (9, 10, 11), (10, 11, 9), (11, 11, 10)]
    far = distinct_cells(random.Random(0), 1000, 12)
    filler = [(x + 25, y + 25, z + 25) for x, y, z in far]
    for order in (ring, ring[::-1], ring[2:] + ring[:2]):
        cells = filler[:700] + order + filler[700:]
        nn = build(cells)
        expected = brute_nearest(cells, q)
        assert cells[expected] == order[0]
        assert nn.nearest(q) == expected
        # The ring alone, each cell at distance 2.
        assert build(order).nearest(q) == brute_nearest(order, q) == 0


def test_far_samples_take_the_fallback_scan():
    rng = random.Random(1)
    cells = distinct_cells(rng, 400, 8)
    nn = build(cells, dims=(40, 40, 40))
    # Far from the cells, in a corner of the area.
    for q in [(30, 30, 30), (39, 4, 4), (4, 4, 39), (7, 39, 7)]:
        assert nn.nearest(q) == brute_nearest(cells, q)


def test_growth_past_initial_capacity():
    rng = random.Random(3)
    cells = distinct_cells(rng, 3000, 20)
    nn = PlannerTree((20, 20, 20))
    assert len(nn._offsets) == 1024
    for i, c in enumerate(cells):
        nn.add(c, -1)
        if i in (1023, 1024, 2047, 2048, 2999):
            agrees(nn, cells[: i + 1], distinct_cells(random.Random(i), 20, 20))


def test_queries_at_and_beyond_the_area_edge():
    # Cells on the faces of the area: within() probes from them reach
    # negative and past-the-end coordinates, and queries from outside are
    # refused.
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
    agrees(nn, cells, corners)
    refuses(nn, outside)


@pytest.mark.parametrize("dims", [
    (65, 64, 64), (64, 65, 64), (64, 64, 65),  # one cell past the cap on one axis
    (1008, 1008, 1008), (1009, 3, 1009), (5000, 3, 5000),
])
def test_areas_past_the_cap_are_refused(dims):
    refuses_dims(dims)
    # Refused before it builds anything.
    assert dims not in baselines._TABLES


def test_probes_out_to_the_reach_beyond_the_area():
    # within() from queries on the area's faces probes cells up to
    # REWIRE_RADIUS outside the area, in the probe list's padding.
    dims = (24, 24, 24)
    rng = random.Random(11)
    cells = distinct_cells(rng, 40, 6, low=9)
    nn = build(cells, dims)
    queries = [(0, 0, 0), (23, 23, 23), (0, 12, 23), (23, 0, 11), (12, 12, 0)]
    agrees(nn, cells, queries)


def test_cells_outside_the_area_are_refused():
    nn = PlannerTree((5, 5, 5))
    nn.add((4, 4, 4), -1)
    bad = [(5, 0, 0), (0, -1, 0), (0, 0, 5)]
    for c in bad:
        with pytest.raises(ValueError, match="outside the area"):
            nn.add(c, -1)
    # Queries are refused outside the area too, even one step past the
    # indexed cell, where its slot and the probes would reach.
    refuses(nn, bad + [(4, 4, 5), (4, 5, 4), (5, 4, 4)])
    # The root has no node before it.
    assert nn.within(0, 1) == ([], [], [0])
    assert nn.cells == [(4, 4, 4)]


@pytest.mark.parametrize("dims", [(5, 5, 5), (2, 2, 64)])
def test_a_cell_already_indexed_is_refused(dims):
    nn = PlannerTree(dims)
    nn.add((1, 1, 1), -1)
    with pytest.raises(ValueError, match="already indexed"):
        nn.add((1, 1, 1), -1)
    # within()'s probes and nearest()'s scan both see the one cell.
    assert nn.nearest((1, 1, 0)) == nn.nearest((0, 0, 1)) == 0
    nn.add((1, 1, 2), 0)
    nn.add((0, 0, 0), 0)
    assert nn.within(1, 3) == ([0, 0], [1, 3], [1, 2])


def test_a_64_cube_probe_list_is_exactly_at_the_cap():
    assert PLAN_DIM_MAX == 64
    nn = _NearestIndex((64, 64, 64))
    assert type(nn._slots) is list and len(nn._slots) == 314_434


@pytest.mark.parametrize("dims", [(64, 64, 64), (2, 64, 3)])
def test_the_probe_list_answers_exactly(dims):
    # Queries on the area's faces and corners, so within()'s probes reach
    # the padding on every side.
    nn = PlannerTree(dims)
    rng = random.Random(sum(dims))
    ends = [(0, 1, n // 2, n - 2, n - 1) for n in dims]
    cells = list({tuple(rng.choice(e) for e in ends) for _ in range(60)})
    for c in cells:
        nn.add(c, -1)
    corners = sorted({(x, y, z) for x in ends[0] for y in ends[1] for z in ends[2]})
    agrees(nn, cells, corners[::3])
    refuses(nn, [(-1, 0, 0), (dims[0], 3, dims[2] - 1), (-(10**9), 10**9, 5)])


def _coordinate(n):
    """A coordinate on an axis of n cells, drawn mostly from its two ends."""
    return st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))


def _query_coordinate(n):
    """A coordinate inside an axis of n cells, on its ends, or up to 10**9 past them."""
    return st.one_of(
        _coordinate(n),
        st.sampled_from([-1, n, -(10**9), n - 1 + 10**9]),
        st.integers(-(10**9), -1),
        st.integers(n, n - 1 + 10**9),
    )


@st.composite
def small_area_case(draw):
    """An area of 2-9 cells per axis, distinct cells in it mostly on its
    faces and corners, and queries inside, on and outside it."""
    dims = tuple(draw(st.integers(2, 9)) for _ in range(3))
    cell = st.tuples(*(_coordinate(n) for n in dims))
    cells = draw(st.lists(cell, min_size=1, max_size=40, unique=True))
    query = st.tuples(*(_query_coordinate(n) for n in dims))
    return dims, cells, draw(st.lists(query, min_size=1, max_size=8))


@given(small_area_case())
def test_table_keys_at_the_smallest_radices(case):
    # Axes of 2 and 3 cells give the key radices 3 and 5.
    dims, cells, queries = case
    nn = build(cells, dims)
    assert nn._table.dtype == np.int8
    inside = [q for q in queries if all(0 <= v < n for v, n in zip(q, dims))]
    agrees(nn, cells, inside)
    refuses(nn, [q for q in queries if q not in inside])


def test_a_64_cube_table_is_exactly_at_the_cap():
    table = baselines._distance_table((64, 64, 64))
    assert table.dtype == np.int16 and table.size == (2 * 64 - 1) ** 3
    assert table.max() == 3 * 63


# A case whose dtype is None is an area past the cap, which is refused.
@pytest.mark.parametrize("dims, dtype", [
    ((64, 64, 64), np.int16),  # the largest table, 127^3 entries
    ((65, 64, 64), None),  # one cell more along x passes the cap
    ((64, 64, 2), np.int8),  # farthest distance 127
    ((64, 64, 3), np.int16),  # farthest distance 128
    ((3, 64, 64), np.int16),  # farthest distance 128
    ((2, 2, 127), None),
    ((2, 2, 32766), None),
    ((2, 2, 32767), None),
    ((2, 2, 40000), None),
])
def test_the_table_or_the_coordinate_scan_answers_exactly(dims, dtype):
    if dtype is None:
        refuses_dims(dims)
        return
    nn = PlannerTree(dims)
    assert nn._table.dtype == dtype
    assert nn._table.size == (2 * dims[0] - 1) * (2 * dims[1] - 1) * (2 * dims[2] - 1)
    ends = [(0, n // 2, n - 2, n - 1) for n in dims]
    cells = sorted({(x, y, z) for x in ends[0] for y in ends[1] for z in ends[2]})
    for c in cells:
        nn.add(c, -1)
    far = [tuple(n - 1 - v for v, n in zip(c, dims)) for c in cells]
    # Few cells in a large area, queried from the far side.
    agrees(nn, cells, far)
    refuses(nn, [(-1, 0, 0), (dims[0], dims[1] + 3, -5), (-(10**9), 10**9, dims[2] + 10**9)])
