"""Oracle for the per-drone state the simulation keeps across ticks.

The engine keeps the flying drones, the set of drone cells, the parked
drones' cells, the known obstacles (scan label -> cell) and the hazard-count
grid from one tick to the next, instead of rebuilding them from every drone
each tick. These tests fly seeded missions tick by tick and check that state
against the drones themselves before the first tick and after every tick:
the flying list is the drones not yet arrived in id order, the parked map
is the arrived drones' cells to their ids, the drone-cell set is every
drone's current cell, the kept grid equals one rebuilt from scratch from
the drones and the known obstacles (so the counts the next tick's decisions
read are right), the lock table holds each drone's current cell and nothing
else, and the kept blocked cells are the known obstacles' cells. From
`detection_radius` 2 up the known obstacles are every static and every live
moving obstacle, before the first tick too; below 2 they are the statics a
drone's cell at the start of some tick so far was within the radius of, and
the moving obstacles within the radius of a drone's cell at the start of
the last tick.

The obstacle field keeps a calendar of obstacle steps and the obstacle map
both ways. After every tick each live moving obstacle sits in the calendar
exactly once, under the next tick on its cadence (the first tick from now
on `t` with `t >= spawn_tick` and `(t - spawn_tick) % cadence == 0`), and
no dead obstacle sits there; the kept obstacle map equals one rebuilt from
every static in the config and every moving obstacle live and spawned at
the last tick, and the scan's cell -> labels map equals the one rebuilt
from it.

The drone's mode is read from its backtrack counters, so after every tick
each drone's counters stay in the range the backtrack exit keeps them in,
and a parked drone is not backtracking.
"""

import dataclasses
from itertools import product

import pytest

from swarmgrid.coordination import LockTable
from swarmgrid.engine import SimConfig, Simulation
from swarmgrid.harness import EXPERIMENTS, ExperimentSpec, build_experiment
from test_golden import mixed_missions

# 300 drones in 20^3 and 30 drones in 6^3, as the benchmark flies them.
SWARM = ExperimentSpec(0, (20, 20, 20), 300, 50, 50)
DENSE = ExperimentSpec(0, (6, 6, 6), 30, 5, 5)


def rebuilt_grid(sim: Simulation) -> list[int]:
    """The hazard grid from scratch: over the area padded by one cell on each
    side, at flat index (x+1)(Y+2)(Z+2) + (y+1)(Z+2) + (z+1), each cell
    counts 2 per known obstacle and 1 per drone whose cell is within
    Chebyshev 1 of it."""
    dim_x, dim_y, dim_z = sim.cfg.dims
    sy = dim_z + 2
    sx = (dim_y + 2) * sy
    counts = [0] * ((dim_x + 2) * sx)
    weighted = [(c, 2) for c in sim._known.values()] + [(d.current, 1) for d in sim.drones]
    for (x, y, z), weight in weighted:
        for dx, dy, dz in product((-1, 0, 1), repeat=3):
            counts[(x + dx + 1) * sx + (y + dy + 1) * sy + z + dz + 1] += weight
    return counts


def _near(cell, cells, r) -> bool:
    """Is one of `cells` within Chebyshev r of the cell?"""
    return any(max(abs(a - b) for a, b in zip(cell, c)) <= r for c in cells)


def next_step_tick(mo, tick: int) -> int:
    """The first tick from `tick` on at which the obstacle steps."""
    if tick <= mo.spawn_tick:
        return mo.spawn_tick
    return tick + -(tick - mo.spawn_tick) % mo.cadence


def assert_labels_at_cells(field) -> None:
    """The field's cell -> labels map is its label -> cell map turned
    around, with no empty or repeated entries (the labels in any order)."""
    rebuilt: dict = {}
    for label, cell in field.cells.items():
        rebuilt.setdefault(cell, []).append(label)
    assert {cell: sorted(labels) for cell, labels in field.at.items()} == {
        cell: sorted(labels) for cell, labels in rebuilt.items()
    }


def check_kept_state(sim: Simulation, start_cells=None, detected=None) -> None:
    """Check the kept state after a tick whose drones started on
    `start_cells`, or before the first tick when that is None. `detected`
    holds the labels of the statics a drone has detected so far, below
    radius 2."""
    arrived = [d for d in sim.drones if d.arrived]
    bt = sim.cfg.backtrack
    for d in sim.drones:
        assert 0 <= d.bt_steps_done <= d.bt_attempts < bt.max_attempts
        assert d.bt_steps_done < bt.required_steps
    assert all(d.bt_attempts == 0 for d in arrived)
    assert [d.id for d in sim._flying] == [d.id for d in sim.drones if not d.arrived]
    assert sim._parked == {d.current: d.id for d in arrived}
    assert sim._drone_cells == {d.current for d in sim.drones}
    # Between ticks each drone holds exactly its own cell's lock; the
    # conflict test relies on it to keep drones out of each other's cells.
    assert sim.locks._holders == {d.current: d.id for d in sim.drones}
    assert list(sim._grid.counts) == rebuilt_grid(sim)
    assert sim._blocked == set(sim._known.values())
    field = sim.field
    filed = [(t, i) for t, ids in field.due.items() for i in ids]
    assert sorted(filed) == sorted(
        (next_step_tick(mo, sim.tick), mo.id) for mo in field.movings if mo.alive
    )
    statics = {f"s{i}": c for i, c in enumerate(sim.cfg.static_obstacles)}
    live = {
        f"m{mo.id}": mo.cell for mo in field.movings
        if mo.alive and sim.tick - 1 >= mo.spawn_tick
    }
    assert field.cells == {**statics, **live}
    assert_labels_at_cells(field)
    # From radius 2 up the decisions take every static obstacle and every
    # live moving obstacle as known. The obstacles have not moved since the
    # last tick's phase 1.
    r = sim.cfg.detection_radius
    if r >= 2:
        assert sim._known == {**statics, **live}
    elif start_cells is None:
        assert sim._known == {}
    else:
        assert sim._known == {
            **{label: statics[label] for label in detected},
            **{label: cell for label, cell in live.items() if _near(cell, start_cells, r)},
        }


def fly_with_oracle(cfg: SimConfig) -> int:
    """Fly cfg to its end, checking the kept state after every tick.
    Returns the number of ticks that started with a parked drone."""
    sim = Simulation(cfg)
    parked_ticks = 0
    check_kept_state(sim)
    detected: set = set()
    max_ticks = cfg.effective_max_ticks()
    while not sim.all_arrived() and sim.tick < max_ticks:
        parked_ticks += bool(sim._parked)
        start_cells = [d.current for d in sim.drones]
        if cfg.detection_radius < 2:
            detected.update(
                f"s{i}" for i, c in enumerate(cfg.static_obstacles)
                if _near(c, start_cells, cfg.detection_radius)
            )
        sim.run_tick()
        check_kept_state(sim, start_cells, detected)
    assert sim.all_arrived() == all(d.arrived for d in sim.drones)
    return parked_ticks


@pytest.mark.parametrize("avoid_drones", [True, False])
@pytest.mark.parametrize("exp", [1, 2, 3, 4])
def test_experiments_keep_their_state(exp, avoid_drones):
    cfg = dataclasses.replace(
        build_experiment(EXPERIMENTS[exp], 0), obstacles_avoid_drones=avoid_drones
    )
    assert fly_with_oracle(cfg) > 0


def test_mixed_cadences_keep_their_state():
    """Cadences 1-5 and late spawns file the obstacles under many ticks,
    at radii 0-2, and obstacles die on and off the ticks of others."""
    for cfg in mixed_missions():
        fly_with_oracle(cfg)


@pytest.mark.parametrize("radius", [0, 1])
def test_detection_below_radius_two_keeps_its_state(radius):
    """Below radius 2 the obstacles are known by detection, tick by tick."""
    cfg = dataclasses.replace(build_experiment(EXPERIMENTS[3], 0), detection_radius=radius)
    assert fly_with_oracle(cfg) > 0


@pytest.mark.parametrize("seed", [0, 2])
def test_dense_grid_keeps_its_state(seed):
    """Seed 2 livelocks until max_ticks with most drones parked around it."""
    cfg = dataclasses.replace(build_experiment(DENSE, seed), max_ticks=300)
    assert fly_with_oracle(cfg) > 0


def test_dense_swarm_keeps_its_state():
    assert fly_with_oracle(build_experiment(SWARM, 0)) > 0


def test_a_drone_following_into_a_cell_vacated_this_tick_keeps_its_cell(monkeypatch):
    """The decisions never pick a cell another drone started the tick on, but
    the drone-cell set must not depend on that: drone 0 enters the cell
    drone 1 leaves, and drone 1 is committed after drone 0. The lock of that
    cell passes to drone 0 when it asks, and drone 1's release skips it."""
    cfg = SimConfig(dims=(6, 6, 6), drones=[((0, 0, 0), (5, 0, 0)), ((1, 0, 0), (5, 5, 5))])
    sim = Simulation(cfg)
    monkeypatch.setattr(
        Simulation, "_normal_decision",
        lambda self, d, ctx: ((d.current[0] + 1, 0, 0), "advance"),
    )

    def hand_over(self, drone_id, cell):
        self._holders[cell] = drone_id
        return True

    def release_if_held(self, drone_id, cell):
        if self._holders.get(cell) == drone_id:
            del self._holders[cell]

    monkeypatch.setattr(LockTable, "try_acquire", hand_over)
    monkeypatch.setattr(LockTable, "release", release_if_held)
    sim.run_tick()
    assert [d.current for d in sim.drones] == [(1, 0, 0), (2, 0, 0)]
    assert sim.collisions == []
    check_kept_state(sim)


def test_drones_starting_on_their_dest_are_parked_from_the_start():
    cfg = SimConfig(
        dims=(6, 6, 6),
        drones=[((2, 2, 2), (2, 2, 2)), ((0, 0, 0), (4, 4, 4)), ((5, 5, 5), (5, 5, 5))],
        static_obstacles=[(3, 3, 3)],
        moving_obstacles=[((2, 3, 2), 1, 0)],
    )
    sim = Simulation(cfg)
    assert sim._parked == {(2, 2, 2): 0, (5, 5, 5): 2}
    assert [d.id for d in sim._flying] == [1]
    assert fly_with_oracle(cfg) > 0
