"""Tests for the benchmark's own generator, output checks and trace parser."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from scenarios import SHAPES, Scenario, generate, workload_ops  # noqa: E402


def scenario(drones, statics=()):
    return Scenario("test", 0, (4, 4, 4), tuple(drones), tuple(statics), ())


def nav(s, routes, ticks=None, arrived=None):
    ticks = max(len(r) - 1 for r in routes) if ticks is None else ticks
    arrived = [True] * len(routes) if arrived is None else arrived
    return checks.navigator_problems(s, routes, arrived, ticks, False, 0)


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_generator_repeats_per_seed_and_changes_with_it(shape):
    a, b = generate(SHAPES[shape], 3), generate(SHAPES[shape], 3)
    assert a == b
    assert a.to_json() == b.to_json()
    assert generate(SHAPES[shape], 4) != a


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_generator_cells_are_distinct_and_inside(shape):
    spec = SHAPES[shape]
    s = generate(spec, 7)
    cells = [c for pair in s.drones for c in pair]
    cells += list(s.static_obstacles) + list(s.moving_obstacles)
    assert len(cells) == len(set(cells)) == 2 * spec.drones + spec.static + spec.moving
    assert all(0 <= c[k] < spec.dims[k] for c in cells for k in range(3))


def test_every_workload_has_operations():
    for workload in ("missions", "swarm-scale", "congested", "baselines"):
        assert workload_ops(workload)


# -- navigator checks -----------------------------------------------------------

CLEAN = scenario([((0, 0, 0), (2, 0, 0)), ((3, 1, 0), (1, 1, 0))])
CLEAN_ROUTES = [[(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(3, 1, 0), (2, 1, 0), (1, 1, 0)]]


def test_clean_routes_pass():
    assert nav(CLEAN, CLEAN_ROUTES) == []


def test_diagonal_jump_is_flagged():
    routes = [[(0, 0, 0), (1, 1, 0), (2, 0, 0)], CLEAN_ROUTES[1]]
    assert any("illegal step" in p for p in nav(CLEAN, routes))


def test_swap_is_flagged():
    s = scenario([((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 0, 0))])
    problems = nav(s, [[(0, 0, 0), (1, 0, 0)], [(1, 0, 0), (0, 0, 0)]])
    assert problems == ["own scan: 0 co-locations, 1 swaps"]


def test_colocation_is_flagged():
    s = scenario([((0, 0, 0), (2, 0, 0)), ((1, 1, 0), (1, 0, 1))])
    routes = [[(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(1, 1, 0), (1, 0, 0), (1, 0, 1)]]
    assert nav(s, routes) == ["own scan: 1 co-locations, 0 swaps"]


def test_parked_drone_is_still_in_the_way():
    # Drone 0 parks at (1,0,0) after one tick; drone 1 enters it at tick 2.
    s = scenario([((0, 0, 0), (1, 0, 0)), ((1, 2, 0), (1, 0, 1))])
    routes = [[(0, 0, 0), (1, 0, 0)], [(1, 2, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1)]]
    assert nav(s, routes) == ["own scan: 1 co-locations, 0 swaps"]


def test_static_obstacle_entry_is_flagged():
    s = scenario(CLEAN.drones, statics=[(1, 0, 0)])
    assert any("static obstacle" in p for p in nav(s, CLEAN_ROUTES))


def test_wrong_start_short_route_and_missed_destination_are_flagged():
    routes = [[(1, 0, 0), (2, 0, 0)], CLEAN_ROUTES[1]]
    assert any("begin at its start" in p for p in nav(CLEAN, routes))
    routes = [[(0, 0, 0), (1, 0, 0)], CLEAN_ROUTES[1]]
    assert any("arrived away" in p for p in nav(CLEAN, routes))
    assert any("not arrived" in p for p in nav(CLEAN, routes, arrived=[False, True]))


def test_program_collisions_are_flagged():
    problems = checks.navigator_problems(CLEAN, CLEAN_ROUTES, [True, True], 2, False, 3)
    assert problems == ["program reported 3 collisions"]


# -- baseline checks ------------------------------------------------------------

SWAPPING = scenario([((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 0, 0))])
SWAP_ROUTES = [[(0, 0, 0), (1, 0, 0)], [(1, 0, 0), (0, 0, 0)]]


def test_baseline_counts_must_match_the_program():
    assert checks.baseline_problems(SWAPPING, SWAP_ROUTES, [("swap", (0, 1))]) == []
    assert checks.baseline_problems(SWAPPING, SWAP_ROUTES, [])


def test_baseline_route_must_step_every_tick_and_reach_its_destination():
    hover = [[(0, 0, 0), (0, 0, 0), (1, 0, 0)], [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)]]
    assert any("illegal step" in p for p in checks.baseline_problems(SWAPPING, hover, []))
    short = [[(0, 0, 0)], [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)]]
    assert any("destination" in p for p in checks.baseline_problems(SWAPPING, short, []))


# -- trace parser -----------------------------------------------------------------

def trace_text(rows):
    head = [checks.TRACE_HEADER, "# area 4 4 4", checks.TRACE_FIELDS]
    return "\n".join(head + ["\t".join(str(v) for v in row) for row in rows]) + "\n"


def test_trace_parser_reads_cells_and_actions():
    text = trace_text([
        (0, 0, "normal", 1, 0, 0, "advance", 0),
        (0, 1, "hover", 3, 1, 0, "lock-denied", 0),
        (1, 0, "normal", 2, 0, 0, "advance", 0),
        (1, 1, "normal", 2, 1, 0, "redirect", 1),
    ])
    trace = checks.parse_trace(text, 2)
    assert trace.dims == (4, 4, 4)
    assert trace.cells_by_tick == [[(1, 0, 0), (3, 1, 0)], [(2, 0, 0), (2, 1, 0)]]
    assert trace.actions == {"advance": 2, "lock-denied": 1, "redirect": 1}


@pytest.mark.parametrize("rows", [
    [(0, 1, "normal", 1, 0, 0, "advance", 0), (0, 0, "normal", 1, 0, 0, "advance", 0)],
    [(0, 0, "normal", 1, 0, 0, "teleport", 0), (0, 1, "normal", 1, 0, 0, "advance", 0)],
    [(0, 0, "normal", 1, 0, 0, "advance", 0)],
])
def test_trace_parser_rejects_malformed_traces(rows):
    with pytest.raises(checks.TraceError):
        checks.parse_trace(trace_text(rows), 2)


# -- host-time calibration ----------------------------------------------------------

def test_calibration_scale_uses_fastest_neighbouring_samples():
    import run

    cal = run.Calibration()
    cal.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    cal.ms = [1.0, 20.0, 10.0, 30.0, 40.0, 50.0, 60.0, 70.0, 5.0]
    n = run.CALIBRATION_NEIGHBOURS
    assert n == 3
    # A span from 4.5 to 5.5: samples 2.0-4.0 before it, 6.0-8.0 after it.
    assert cal.scale(4.5, 5.5) == pytest.approx(run.CALIBRATION_REF_MS / 10.0)
    # Near the start only the samples that exist count.
    assert cal.scale(1.5, 1.6) == pytest.approx(run.CALIBRATION_REF_MS / 1.0)
