"""Drone route bookkeeping and moving-obstacle stepping."""

import random

import pytest

from swarmgrid.baselines import execute_open_loop
from swarmgrid.engine import ConfigError, SimConfig
from swarmgrid.entities import (
    Drone,
    IllegalMove,
    MovingObstacle,
    record_move,
    step_moving_obstacle,
)
from swarmgrid.world import Area, manhattan

AREA = Area(6, 6, 6, 10.0, 30.0, 9.0)


def make_drone(**kw):
    defaults = dict(id=0, start=(0, 0, 0), dest=(3, 0, 0))
    defaults.update(kw)
    return Drone(**defaults)


def test_drone_initial_state():
    d = make_drone()
    assert d.current == d.start
    assert d.route == [d.start]
    assert d.best_dist == 3
    assert d.bt_attempts == d.bt_steps_done == d.hover_streak == 0
    assert not d.arrived


def test_record_move_step_and_hover():
    d = make_drone()
    record_move(d, (1, 0, 0))
    assert d.current == (1, 0, 0)
    assert d.hover_streak == 0
    record_move(d, (1, 0, 0))
    record_move(d, (1, 0, 0))
    assert d.hover_streak == 2
    assert d.route == [(0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)]
    # a real move clears the streak
    record_move(d, (1, 1, 0))
    assert d.hover_streak == 0


def test_record_move_rejects_teleport():
    d = make_drone()
    with pytest.raises(IllegalMove):
        record_move(d, (2, 0, 0))
    with pytest.raises(IllegalMove):
        record_move(d, (1, 1, 0))


def test_moving_obstacle_cadence_validation():
    # The open-loop flight builds its obstacles from an unchecked config, so
    # it validates first rather than divide by a cadence of 0.
    cfg = SimConfig(dims=(4, 4, 4), drones=[], moving_obstacles=[((1, 1, 1), 0, 0)])
    with pytest.raises(ConfigError, match=r"moving_obstacles\[0\]"):
        execute_open_loop({}, cfg)


def test_obstacle_holds_still_off_cadence_and_before_spawn():
    rng = random.Random(1)
    o = MovingObstacle(id=0, cell=(3, 3, 3), cadence=4, spawn_tick=2)
    step_moving_obstacle(o, 0, rng, AREA, set())  # before spawn
    step_moving_obstacle(o, 1, rng, AREA, set())
    assert o.cell == (3, 3, 3)
    step_moving_obstacle(o, 3, rng, AREA, set())  # off cadence: (3-2)%4 != 0
    assert o.cell == (3, 3, 3)


def test_obstacle_takes_one_axis_step_on_cadence():
    rng = random.Random(7)
    o = MovingObstacle(id=0, cell=(3, 3, 3), cadence=1)
    step_moving_obstacle(o, 0, rng, AREA, set())
    assert manhattan(o.cell, (3, 3, 3)) == 1
    assert o.alive


def test_obstacle_dies_leaving_the_area():
    # Boxed into a corner of a minimal area with every inside neighbor
    # drone-occupied: the only free directions point outside.
    tiny = Area(2, 2, 2, 10.0, 30.0, 9.0)
    o = MovingObstacle(id=0, cell=(0, 0, 0), cadence=1)
    occupied = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    step_moving_obstacle(o, 0, random.Random(0), tiny, occupied)
    assert not o.alive
    # a dead obstacle never moves again
    cell = o.cell
    step_moving_obstacle(o, 1, random.Random(0), tiny, set())
    assert o.cell == cell


def test_obstacle_avoids_drone_cells_when_asked():
    rng = random.Random(3)
    occupied = {(4, 3, 3), (2, 3, 3), (3, 4, 3), (3, 2, 3), (3, 3, 4)}
    for _ in range(50):
        o = MovingObstacle(id=0, cell=(3, 3, 3), cadence=1)
        step_moving_obstacle(o, 0, rng, AREA, occupied)
        assert o.cell not in occupied


def test_obstacle_hovers_when_fully_surrounded():
    rng = random.Random(3)
    occupied = {
        (4, 3, 3), (2, 3, 3), (3, 4, 3), (3, 2, 3), (3, 3, 4), (3, 3, 2),
    }
    o = MovingObstacle(id=0, cell=(3, 3, 3), cadence=1)
    step_moving_obstacle(o, 0, rng, AREA, occupied)
    assert o.cell == (3, 3, 3)


def test_oblivious_obstacle_may_enter_drone_cells():
    hits = 0
    for seed in range(60):
        o = MovingObstacle(id=0, cell=(3, 3, 3), cadence=1)
        step_moving_obstacle(
            o, 0, random.Random(seed), AREA, {(4, 3, 3)}, avoid_drones=False
        )
        hits += o.cell == (4, 3, 3)
    assert hits > 0
