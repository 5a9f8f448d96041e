"""The open-loop executor against the per-tick loop it replaced.

`execute_open_loop` steps only the moving obstacles due on a tick and scans
only the drones whose route has not ended, with the others as parked. Its
collisions, its ticks and its generator's final state must equal those of
the old loop, which stepped every obstacle and scanned every drone on every
tick. The old loop built the obstacles as label -> cell; it turns them
around into the cell -> labels map the scan now takes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgrid import baselines
from swarmgrid.baselines import execute_open_loop
from swarmgrid.engine import CollisionRecord, SimConfig, SimResult, detect_collisions_ground_truth
from swarmgrid.entities import MovingObstacle, step_moving_obstacle
from test_scan_oracle import obstacles_at
from test_tick_state_oracle import assert_labels_at_cells


def old_execute_open_loop(routes, cfg):
    """The per-tick loop as it was before the step calendar and the parked
    map, kept verbatim; it also returns its generator."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    area = cfg.area()
    movings = [
        MovingObstacle(id=i, cell=c, cadence=cad, spawn_tick=sp)
        for i, (c, cad, sp) in enumerate(cfg.moving_obstacles)
    ]
    statics = {f"s{i}": c for i, c in enumerate(cfg.static_obstacles)}
    total_ticks = max((len(r) - 1 for r in routes.values()), default=0)
    collisions: list[CollisionRecord] = []
    positions = {i: r[0] for i, r in routes.items()}
    # Obstacles that do not dodge drones read no drone cells.
    no_drones = frozenset()
    for tick in range(total_ticks):
        before = dict(positions)
        for o in movings:
            step_moving_obstacle(o, tick, rng, area, no_drones, avoid_drones=False)
        for i, r in routes.items():
            positions[i] = r[min(tick + 1, len(r) - 1)]
        obstacle_cells = dict(statics)
        for o in movings:
            if o.alive and tick >= o.spawn_tick:
                obstacle_cells[f"m{o.id}"] = o.cell
        collisions += detect_collisions_ground_truth(
            before, positions, obstacles_at(obstacle_cells), tick, {}
        )
    result = SimResult(
        routes={i: list(r) for i, r in routes.items()},
        collisions=collisions,
        ticks=total_ticks,
        wall_ms=0.0,
        arrived={i: True for i in routes},
        timed_out=False,
    )
    return result, rng


def flown(routes, cfg):
    """execute_open_loop's result, and the generator its obstacles stepped
    with (a fresh one of the seed when none stepped). Every tick's scan must
    get the field's cell -> labels map, equal to its label -> cell map
    turned around."""
    rngs = []
    fields = []
    step, scan = baselines.step_moving_obstacle, baselines.detect_collisions_ground_truth

    def stepping(o, tick, rng, *args, **kwargs):
        rngs.append(rng)
        return step(o, tick, rng, *args, **kwargs)

    class Field(baselines.ObstacleField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

    def scanning(before, after, obstacles_at, tick, parked):
        (field,) = fields
        assert obstacles_at is field.at
        assert_labels_at_cells(field)
        return scan(before, after, obstacles_at, tick, parked)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "step_moving_obstacle", stepping)
        mp.setattr(baselines, "ObstacleField", Field)
        mp.setattr(baselines, "detect_collisions_ground_truth", scanning)
        result = execute_open_loop(routes, cfg)
    return result, rngs[-1] if rngs else random.Random(cfg.seed)


def assert_as_before(routes, cfg):
    """Equal collisions, ticks and generator state; returns the collisions."""
    result, rng = flown(routes, cfg)
    old, old_rng = old_execute_open_loop(routes, cfg)
    assert result.collisions == old.collisions
    assert result.ticks == old.ticks
    assert rng.getstate() == old_rng.getstate()
    return result.collisions


def walk(frm, to):
    """The axis steps from frm to to, x first, without frm."""
    cur = list(frm)
    out = []
    for k in range(3):
        while cur[k] != to[k]:
            cur[k] += 1 if to[k] > cur[k] else -1
            out.append(tuple(cur))
    return out


MOVES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0)]


@st.composite
def flights(draw):
    """Routes and obstacles in a small area, where routes meet, end on one
    cell and cross the cells of drones whose routes ended, and obstacles
    walk off the area."""
    dims = draw(st.tuples(*[st.integers(2, 4)] * 3))
    cell = st.tuples(*[st.integers(0, d - 1) for d in dims])
    ids = draw(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=8))
    routes = {}
    for i in ids:
        route = [draw(cell)]
        for move in draw(st.lists(st.sampled_from(MOVES), max_size=10)):
            nxt = tuple(c + m for c, m in zip(route[-1], move))
            # A move off the area hovers instead.
            route.append(nxt if all(0 <= v < d for v, d in zip(nxt, dims)) else route[-1])
        routes[i] = route
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    # b ends where a ends.
    for a, b in draw(st.lists(pairs, max_size=2)):
        routes[b] = routes[b] + walk(routes[b][-1], routes[a][-1])
    # b waits until a's route has ended, then flies through a's last cell.
    for a, b in draw(st.lists(pairs, max_size=2)):
        if a == b:
            continue
        route = routes[b] + [routes[b][-1]] * max(0, len(routes[a]) - len(routes[b]))
        route += walk(route[-1], routes[a][-1])
        x, y, z = route[-1]
        route.append((x + 1, y, z) if x + 1 < dims[0] else (x - 1, y, z))
        routes[b] = route
    statics = draw(st.lists(cell, max_size=4))
    movings = draw(st.lists(
        st.tuples(cell, st.integers(1, 5), st.integers(0, 8)), max_size=6
    ))
    seed = draw(st.integers(0, 10_000))
    cfg = SimConfig(
        dims=dims, drones=[], static_obstacles=statics, moving_obstacles=movings, seed=seed
    )
    order = draw(st.permutations(list(routes)))
    return {i: routes[i] for i in order}, cfg


@settings(max_examples=400, deadline=None)
@given(flights())
def test_open_loop_flies_as_the_per_tick_loop_did(flight):
    assert_as_before(*flight)


def test_two_routes_that_end_on_one_cell_collide_on_every_later_tick():
    # Drones 3 and 7 end on (1, 0, 0) at tick 0; drone 5 flies on to tick 4.
    routes = {
        7: [(0, 0, 0), (1, 0, 0)],
        3: [(2, 0, 0), (1, 0, 0)],
        5: [(0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 2, 2), (2, 2, 2)],
    }
    cfg = SimConfig(dims=(3, 3, 3), drones=[], seed=1)
    collisions = assert_as_before(routes, cfg)
    assert collisions == [
        CollisionRecord(t, "colocation", (3, 7), (1, 0, 0)) for t in range(4)
    ]


def test_a_flying_drone_crossing_a_parked_drone_collides_with_it():
    # Drone 2's route is one cell; drone 0 passes through it on tick 1.
    routes = {
        0: [(0, 1, 1), (0, 1, 2), (1, 1, 2), (2, 1, 2), (2, 1, 1)],
        2: [(1, 1, 2)],
    }
    cfg = SimConfig(dims=(3, 3, 3), drones=[], seed=2)
    collisions = assert_as_before(routes, cfg)
    assert collisions == [CollisionRecord(1, "colocation", (0, 2), (1, 1, 2))]


@pytest.mark.parametrize("seed", range(6))
def test_obstacles_that_walk_off_the_area_stop_stepping(monkeypatch, seed):
    # In a 2x2x2 area every step leaves it with probability 1/2.
    movings = [((x, y, 1), cadence, spawn) for x, y, cadence, spawn in
               [(0, 0, 1, 0), (1, 0, 2, 3), (0, 1, 3, 1), (1, 1, 5, 2), (0, 0, 4, 6)]]
    cfg = SimConfig(dims=(2, 2, 2), drones=[], moving_obstacles=movings, seed=seed)
    routes = {0: [(0, 0, 0)] + [(1, 0, 0), (0, 0, 0)] * 15}
    assert_as_before(routes, cfg)
    steps = []
    step = baselines.step_moving_obstacle

    def stepping(o, tick, *args, **kwargs):
        # Only an obstacle due to step is stepped, once.
        assert o.alive and tick >= o.spawn_tick and (tick - o.spawn_tick) % o.cadence == 0
        steps.append((tick, o.id))
        return step(o, tick, *args, **kwargs)

    monkeypatch.setattr(baselines, "step_moving_obstacle", stepping)
    execute_open_loop(routes, cfg)
    assert len(set(steps)) == len(steps)
    # Obstacles step in id order within a tick.
    assert steps == sorted(steps)
