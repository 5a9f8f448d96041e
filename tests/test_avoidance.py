"""Redirect / hover / backtrack cascade."""

import random

import pytest

from swarmgrid.avoidance import (
    BacktrackConfig,
    DecisionContext,
    avoid,
    backtrack_exit_check,
    backtrack_step,
    cell_is_safe,
)
from swarmgrid.coordination import LockTable
from swarmgrid.entities import Drone
from swarmgrid.world import Area, manhattan

AREA = Area(8, 8, 8, 10.0, 30.0, 9.0)
CFG = BacktrackConfig()


def ctx(blocked=(), locks=None):
    return DecisionContext(
        area=AREA,
        blocked_cells=set(blocked),
        locks=locks or LockTable(),
    )


def drone(cur=(4, 4, 4), dest=(7, 4, 4), **kw):
    d = Drone(id=0, start=cur, dest=dest)
    for k, v in kw.items():
        setattr(d, k, v)
    return d


def test_backtrack_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        BacktrackConfig(required_steps=0)
    with pytest.raises(ValueError):
        BacktrackConfig(stall_threshold=-1)


def test_cell_is_safe():
    locks = LockTable()
    locks.try_acquire(9, (1, 0, 0))
    c = ctx(blocked=[(2, 0, 0)], locks=locks)
    assert not cell_is_safe(c, 0, (2, 0, 0))
    assert not cell_is_safe(c, 0, (1, 0, 0))  # someone else's lock
    assert cell_is_safe(c, 9, (1, 0, 0))      # own lock is fine
    assert cell_is_safe(c, 0, (0, 0, 0))


def test_redirect_prefers_distance_reducing_neighbors():
    d = drone()
    for seed in range(20):
        cell, action = avoid(d, ctx(), random.Random(seed), CFG)
        assert action == "redirect"
        assert manhattan(cell, d.dest) < manhattan(d.current, d.dest)


def test_redirect_accepts_any_safe_neighbor_when_cornered():
    # Everything toward the goal is blocked, one retreat remains.
    d = drone(cur=(4, 4, 4), dest=(7, 4, 4))
    blocked = [(5, 4, 4), (4, 5, 4), (4, 3, 4), (4, 4, 5), (4, 4, 3)]
    assert avoid(d, ctx(blocked=blocked), random.Random(0), CFG) == ((3, 4, 4), "redirect")


def test_hover_when_fully_boxed_in():
    d = drone()
    box = [(5, 4, 4), (3, 4, 4), (4, 5, 4), (4, 3, 4), (4, 4, 5), (4, 4, 3)]
    assert avoid(d, ctx(blocked=box), random.Random(0), CFG) == ((4, 4, 4), "hover")
    # Other drones box it in through the locks of their cells.
    locks = LockTable()
    for i, cell in enumerate(box, start=1):
        locks.try_acquire(i, cell)
    assert avoid(d, ctx(locks=locks), random.Random(0), CFG) == ((4, 4, 4), "hover")


def test_hover_streak_escalates_to_backtrack():
    d = drone(hover_streak=CFG.hover_threshold)
    assert avoid(d, ctx(), random.Random(0), CFG) is None


def test_stalling_escalates_to_backtrack():
    d = drone(stall_ticks=CFG.stall_threshold)
    assert avoid(d, ctx(), random.Random(0), CFG) is None


def test_backtrack_step_moves_away_from_dest():
    # A fresh drone: each call counts an attempt, so the first one starts
    # the backtrack.
    d = drone(cur=(4, 4, 4), dest=(0, 0, 0))
    moved = 0
    for seed in range(30):
        d.current = (4, 4, 4)
        before_dist = manhattan(d.current, d.dest)
        cell = backtrack_step(d, ctx(), random.Random(seed))
        if cell is not None:
            assert manhattan(cell, d.dest) == before_dist + 1
            moved += 1
    assert moved > 0
    assert d.bt_attempts == 30
    assert d.bt_steps_done == moved


def test_backtrack_aligned_dimension_is_a_failed_attempt():
    # x and z already match the destination; only dimension 1 can retreat.
    d = drone(cur=(4, 2, 4), dest=(4, 0, 4))
    rng = random.Random(1)
    results = {backtrack_step(d, ctx(), rng) for _ in range(40)}
    assert None in results
    assert (4, 3, 4) in results
    assert d.bt_attempts == 40


def test_backtrack_blocked_target_fails_attempt():
    d = drone(cur=(4, 0, 0), dest=(0, 0, 0))
    # the only away cell on x is blocked; y and z are aligned
    cell = None
    c = ctx(blocked=[(5, 0, 0)])
    for seed in range(20):
        got = backtrack_step(d, c, random.Random(seed))
        assert got is None
    assert d.bt_steps_done == 0


def test_backtrack_exit_after_required_steps():
    d = drone(bt_steps_done=CFG.required_steps, bt_attempts=CFG.required_steps,
              hover_streak=7, stall_ticks=20)
    assert backtrack_exit_check(d, CFG)
    assert d.bt_steps_done == 0 and d.bt_attempts == 0
    assert d.hover_streak == 0 and d.stall_ticks == 0


def test_backtrack_exit_after_attempt_budget():
    d = drone(bt_attempts=CFG.max_attempts)
    assert backtrack_exit_check(d, CFG)
    # A zero attempt count is what ends the backtrack.
    assert d.bt_attempts == 0


def test_backtrack_keeps_going_otherwise():
    d = drone(bt_steps_done=1, bt_attempts=2)
    assert not backtrack_exit_check(d, CFG)
    assert (d.bt_steps_done, d.bt_attempts) == (1, 2)
