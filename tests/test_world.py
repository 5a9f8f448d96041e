"""Grid geometry, safety spacing, and distance metrics."""

import pytest
from hypothesis import given, strategies as st

from swarmgrid.world import (
    Area,
    DIRECTIONS,
    OutOfBounds,
    SafetyParams,
    SpacingViolation,
    manhattan,
    neighbors,
    new_area,
    safe_distance,
)

cells = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)
)


def test_safe_distance_reference_parameters():
    # 5 m/s, 0.2 s link latency, 0.5 s processing: 2*5*(2*0.2 + 0.5) = 9 m.
    p = SafetyParams(max_speed=5.0, comm_latency=0.2, processing_time=0.5)
    assert safe_distance(p) == 9.0


def test_safe_distance_other_values():
    assert safe_distance(SafetyParams(3.0, 0.1, 0.2)) == pytest.approx(2.4)
    assert safe_distance(SafetyParams(0.0, 1.0, 1.0)) == 0.0


def test_safety_params_reject_negative():
    with pytest.raises(ValueError):
        SafetyParams(-1.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        SafetyParams(5.0, -0.1, 0.5)


def test_area_spacing_must_bracket_safe_distance():
    params = SafetyParams(5.0, 0.2, 0.5)
    # safe_dist 9 <= spacing 10 <= sensing 30: fine.
    new_area((5, 5, 5), 10.0, 30.0, params)
    with pytest.raises(SpacingViolation):
        new_area((5, 5, 5), 8.0, 30.0, params)  # below safe distance
    with pytest.raises(SpacingViolation):
        new_area((5, 5, 5), 40.0, 30.0, params)  # beyond sensing range


def test_area_needs_two_cells_per_dimension():
    with pytest.raises(ValueError):
        Area(1, 5, 5, 10.0, 30.0, 9.0)


def test_area_membership_and_count():
    area = Area(3, 4, 5, 10.0, 30.0, 9.0)
    assert area.dims[0] * area.dims[1] * area.dims[2] == 60
    assert (0, 0, 0) in area
    assert (2, 3, 4) in area
    assert (3, 0, 0) not in area
    assert (0, -1, 0) not in area
    assert area.dims == (3, 4, 5)


def test_neighbors_interior_and_corner():
    area = Area(4, 4, 4, 10.0, 30.0, 9.0)
    assert len(neighbors(area, (1, 1, 1))) == 6
    assert sorted(neighbors(area, (0, 0, 0))) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_neighbors_out_of_area_raises():
    area = Area(4, 4, 4, 10.0, 30.0, 9.0)
    with pytest.raises(OutOfBounds):
        neighbors(area, (4, 0, 0))


def test_directions_are_the_six_axis_steps():
    assert len(DIRECTIONS) == 6
    assert all(sum(abs(v) for v in d) == 1 for d in DIRECTIONS)


def chebyshev(a, b):
    """Oracle: the largest per-axis distance."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))


@given(cells, cells)
def test_metric_basics(a, b):
    assert manhattan(a, b) == manhattan(b, a)
    assert chebyshev(a, b) <= manhattan(a, b) <= 3 * chebyshev(a, b)
    assert (manhattan(a, b) == 0) == (a == b)


@given(cells, cells, cells)
def test_manhattan_triangle_inequality(a, b, c):
    assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)


def test_metric_examples():
    assert manhattan((0, 0, 0), (1, 2, 3)) == 6
    assert chebyshev((0, 0, 0), (1, 2, 3)) == 3
    assert chebyshev((5, 5, 5), (4, 5, 7)) == 2


@given(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
def test_neighbors_are_adjacent_and_inside(c):
    area = Area(8, 8, 8, 10.0, 30.0, 9.0)
    ns = neighbors(area, c)
    assert len(ns) == len(set(ns))
    for n in ns:
        assert n in area
        assert manhattan(n, c) == 1


def _coordinate(n: int):
    """A coordinate on an axis of n cells, drawn mostly from its two ends so
    that cells on faces, edges and corners come up often."""
    return st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))


@st.composite
def area_and_cell(draw):
    """An area of 2-9 cells per axis and a cell inside it."""
    dims = [draw(st.integers(2, 9)) for _ in range(3)]
    return Area(*dims, 10.0, 30.0, 9.0), tuple(draw(_coordinate(n)) for n in dims)


@given(area_and_cell())
def test_neighbors_keep_the_order_of_directions(case):
    """The sidestep and `avoid` draw from this list by index, so the routes
    depend on its order, not only on its cells."""
    area, c = case
    expected = [
        n for n in ((c[0] + dx, c[1] + dy, c[2] + dz) for dx, dy, dz in DIRECTIONS) if n in area
    ]
    assert neighbors(area, c) == expected


@given(area_and_cell(), st.integers(0, 2), st.sampled_from([-2, -1, 1, 2]))
def test_neighbors_of_a_cell_outside_raise(case, axis, off):
    """Move one coordinate of a cell just past either end of its axis."""
    area, c = case
    cell = list(c)
    cell[axis] = -off if off > 0 else area.dims[axis] - 1 - off
    with pytest.raises(OutOfBounds):
        neighbors(area, tuple(cell))
